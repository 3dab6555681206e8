package netmodel

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/internal/rng"
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

// shardPlanner is the Model capability refining MinDelayer for models with
// topological structure: planShards returns the shard of every node, as a
// function of the node, together with the minimum delay of any cross-shard
// message under that assignment. Aligning shard boundaries with the model's
// own boundaries can buy a much larger lookahead than the global minimum —
// the Zones model maps whole zones onto shards, so only the (large)
// inter-zone latency constrains the window, not the (small) intra-zone one.
// A nil shardOf means the model offers no plan and the caller should fall
// back to MinDelayer.
type shardPlanner interface {
	planShards(shards int) (shardOf func(node int32) int32, lookahead float64)
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

// planShards implements shardPlanner: zone boundaries become shard
// boundaries. Every zone is assigned wholly to shard Zone % shards, so a
// cross-shard message is necessarily cross-zone and the lookahead is the
// full inter-zone latency — typically much larger than MinDelay, which is
// bounded by the intra-zone one. The shard is computed from the node's zone
// hash on every call instead of being looked up in a per-node table: the
// hash costs a few multiplications, a table entry for a random destination
// is a cache miss at scale. With a single zone (K < 2) there is no boundary
// to exploit and the model offers no plan.
func (z Zones) planShards(shards int) (func(node int32) int32, float64) {
	if z.K < 2 || shards < 2 {
		return nil, 0
	}
	k, s := uint64(z.K), uint32(shards)
	return func(node int32) int32 {
		// z.Zone(node) % shards, for a node index node ≥ 0.
		return int32(uint32(rng.Derive(zoneStream, uint64(node))%k) % s)
	}, z.Inter
}

// planShards implements shardPlanner by delegating to the inner model.
func (l Lossy) planShards(shards int) (func(node int32) int32, float64) {
	if sp, ok := l.Inner.(shardPlanner); ok {
		return sp.planShards(shards)
	}
	return nil, 0
}

// PlanShards computes the node-to-shard assignment and the conservative
// lookahead for executing a model across the given number of shards. The
// assignment is a pure function of the node index, safe for concurrent
// use, returning a shard in [0, shards) for every node in [0, n). Zones
// (bare or under Lossy) choose their own boundaries; models offering only
// MinDelayer get contiguous blocks, node i in shard ⌊i·shards/n⌋, with the
// global minimum as lookahead — for Constant, the paper's network, that is
// its one delay. Models whose minimum delay is not positive (Exponential,
// LogNormal, or models without the capability) cannot be executed
// conservatively in parallel and yield an error.
func PlanShards(m Model, n, shards int) (func(node int32) int32, float64, error) {
	if shards < 2 {
		return nil, 0, fmt.Errorf("netmodel: PlanShards with %d shards, need ≥ 2", shards)
	}
	if n < shards {
		return nil, 0, fmt.Errorf("netmodel: %d shards for %d nodes, need shards ≤ n", shards, n)
	}
	if sp, ok := m.(shardPlanner); ok {
		if shardOf, lookahead := sp.planShards(shards); shardOf != nil {
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

// contiguousShards splits n nodes into shards contiguous, near-equal blocks:
// block b covers [b*n/shards, (b+1)*n/shards), so node i maps to
// ⌊i·shards/n⌋ — exact for every remainder without floats.
func contiguousShards(n, shards int) func(node int32) int32 {
	un, us := uint64(n), uint64(shards)
	return func(node int32) int32 { return int32(uint64(node) * us / un) }
}
