package netmodel

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// PlanShards computes the node-to-shard assignment and the conservative
// lookahead for executing a model across the given number of shards: the
// minimum delay of any cross-shard message, so shards may run independently
// for a window of that length (a conservative bound — too small is safe, too
// large is not). The assignment is a pure function of the node index, safe
// for concurrent use, returning a shard in [0, shards) for every node in
// [0, n).
//
// Loss does not change latency, so Lossy plans as the model it wraps. Zones
// with K ≥ 2 map whole zones onto shards, so only the inter-zone latency
// bounds the window; every other model gets contiguous blocks, node i in
// shard ⌊i·shards/n⌋, with its global minimum delay as lookahead — for
// Constant, the paper's network, its one delay. Models whose support reaches
// down to zero latency (Exponential, LogNormal) and models outside this
// package have no positive minimum delay and yield an error.
func PlanShards(m Model, n, shards int) (func(node int32) int32, float64, error) {
	if shards < 2 {
		return nil, 0, fmt.Errorf("netmodel: PlanShards with %d shards, need ≥ 2", shards)
	}
	if n < shards {
		return nil, 0, fmt.Errorf("netmodel: %d shards for %d nodes, need shards ≤ n", shards, n)
	}
	inner := m
	for {
		l, ok := inner.(Lossy)
		if !ok {
			break
		}
		inner = l.Inner
	}
	var lookahead float64
	switch im := inner.(type) {
	case Zones:
		if im.K >= 2 {
			if im.Inter <= 0 {
				return nil, 0, fmt.Errorf("netmodel: model %s plans shards with lookahead %g, need > 0", modelLabel(m), im.Inter)
			}
			return zoneShards(im.K, shards), im.Inter, nil
		}
		lookahead = im.Intra // a single zone: every message is intra-zone
	case Constant:
		lookahead = im.D
	case Uniform:
		lookahead = im.Lo
	}
	if lookahead <= 0 {
		return nil, 0, fmt.Errorf("netmodel: model %s has minimum delay %g; sharded execution needs a positive minimum cross-shard delay", modelLabel(m), lookahead)
	}
	return contiguousShards(n, shards), lookahead, nil
}

// zoneShards assigns every zone of a k-zone model wholly to shard
// Zone % shards, so a cross-shard message is necessarily cross-zone. The
// shard is computed from the node's zone hash on every call instead of being
// looked up in a per-node table: the hash costs a few multiplications, a
// table entry for a random destination is a cache miss at scale.
func zoneShards(k, shards int) func(node int32) int32 {
	uk, us := uint64(k), uint32(shards)
	return func(node int32) int32 {
		// Zones.Zone(node) % shards, for a node index node ≥ 0.
		return int32(uint32(rng.Derive(zoneStream, uint64(node))%uk) % us)
	}
}

// contiguousShards splits n nodes into shards contiguous, near-equal blocks:
// block b covers [b*n/shards, (b+1)*n/shards), so node i maps to
// ⌊i·shards/n⌋ — exact for every remainder without floats.
func contiguousShards(n, shards int) func(node int32) int32 {
	un, us := uint64(n), uint64(shards)
	return func(node int32) int32 { return int32(uint64(node) * us / un) }
}
