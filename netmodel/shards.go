package netmodel

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// MinDelayer is an optional Model capability behind conservative sharded
// simulation: MinDelay returns a lower bound on Delay over every (from, to)
// pair and every random draw. A sharded engine may execute shards
// independently for a window of that length, because no message scheduled
// inside the window can come due before the next synchronization barrier.
// The bound must be exact or conservative (too small is safe, too large is
// not); models whose support reaches down to zero latency (Exponential,
// LogNormal) report 0, which disables sharded execution.
type MinDelayer interface {
	MinDelay() float64
}

// ShardPlanner is an optional Model capability refining MinDelayer for
// models with topological structure: PlanShards returns the shard of every
// node together with the minimum delay of any cross-shard message under that
// assignment. Aligning shard boundaries with the model's own boundaries can
// buy a much larger lookahead than the global minimum — the Zones model maps
// whole zones onto shards, so only the (large) inter-zone latency constrains
// the window, not the (small) intra-zone one. A nil shardOf means the model
// offers no plan and the caller should fall back to MinDelayer.
type ShardPlanner interface {
	PlanShards(n, shards int) (shardOf []int32, lookahead float64)
}

// MinDelay implements MinDelayer: every message takes exactly D.
func (c Constant) MinDelay() float64 { return c.D }

// MinDelay implements MinDelayer: the lower bound of the sampling interval.
func (u Uniform) MinDelay() float64 { return u.Lo }

// MinDelay implements MinDelayer: the exponential support reaches zero, so
// there is no positive lookahead.
func (Exponential) MinDelay() float64 { return 0 }

// MinDelay implements MinDelayer: the log-normal support reaches (towards)
// zero, so there is no positive lookahead.
func (LogNormal) MinDelay() float64 { return 0 }

// MinDelay implements MinDelayer: the smaller of the two latencies.
func (z Zones) MinDelay() float64 {
	if z.K < 2 || z.Intra < z.Inter {
		return z.Intra
	}
	return z.Inter
}

// MinDelay implements MinDelayer: loss does not change latency bounds, so
// the bound is the inner model's. An inner model without the capability
// yields 0, which conservatively disables sharded execution.
func (l Lossy) MinDelay() float64 {
	if md, ok := l.Inner.(MinDelayer); ok {
		return md.MinDelay()
	}
	return 0
}

// PlanShards implements ShardPlanner: zone boundaries become shard
// boundaries. Every zone is assigned wholly to shard Zone % shards, so a
// cross-shard message is necessarily cross-zone and the lookahead is the
// full inter-zone latency — typically much larger than MinDelay, which is
// bounded by the intra-zone one. With a single zone (K < 2) there is no
// boundary to exploit and the model offers no plan.
func (z Zones) PlanShards(n, shards int) ([]int32, float64) {
	if z.K < 2 || shards < 2 {
		return nil, 0
	}
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(z.Zone(protocol.NodeID(i)) % shards)
	}
	return shardOf, z.Inter
}

// PlanShards implements ShardPlanner by delegating to the inner model.
func (l Lossy) PlanShards(n, shards int) ([]int32, float64) {
	if sp, ok := l.Inner.(ShardPlanner); ok {
		return sp.PlanShards(n, shards)
	}
	return nil, 0
}

// PlanShards computes the node-to-shard assignment and the conservative
// lookahead for executing a model across the given number of shards. Models
// offering a ShardPlanner plan (Zones) choose their own boundaries; models
// offering only MinDelayer get contiguous blocks with the global minimum as
// lookahead — for Constant, the paper's network, that is its one delay.
// Models whose minimum delay is not positive (Exponential, LogNormal, or
// models without the capability) cannot be executed conservatively in
// parallel and yield an error.
func PlanShards(m Model, n, shards int) ([]int32, float64, error) {
	if shards < 2 {
		return nil, 0, fmt.Errorf("netmodel: PlanShards with %d shards, need ≥ 2", shards)
	}
	if n < shards {
		return nil, 0, fmt.Errorf("netmodel: %d shards for %d nodes, need shards ≤ n", shards, n)
	}
	if sp, ok := m.(ShardPlanner); ok {
		if shardOf, lookahead := sp.PlanShards(n, shards); shardOf != nil {
			if lookahead <= 0 {
				return nil, 0, fmt.Errorf("netmodel: model %s plans shards with lookahead %g, need > 0", modelLabel(m), lookahead)
			}
			return shardOf, lookahead, nil
		}
	}
	md, ok := m.(MinDelayer)
	if !ok {
		return nil, 0, fmt.Errorf("netmodel: model %s does not expose a minimum delay (implement netmodel.MinDelayer for sharded execution)", modelLabel(m))
	}
	lookahead := md.MinDelay()
	if lookahead <= 0 {
		return nil, 0, fmt.Errorf("netmodel: model %s has minimum delay %g; sharded execution needs a positive minimum cross-shard delay", modelLabel(m), lookahead)
	}
	return contiguousShards(n, shards), lookahead, nil
}

// contiguousShards splits n nodes into shards contiguous, near-equal blocks.
func contiguousShards(n, shards int) []int32 {
	shardOf := make([]int32, n)
	for i := range shardOf {
		// Block b covers [b*n/shards, (b+1)*n/shards), so i maps to
		// floor(i*shards/n) — exact for every remainder without floats.
		shardOf[i] = int32(i * shards / n)
	}
	return shardOf
}
