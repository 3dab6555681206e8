package netmodel

import (
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

func TestMinDelay(t *testing.T) {
	cases := []struct {
		model Model
		want  float64
	}{
		{Constant{D: 1.728}, 1.728},
		{Uniform{Lo: 0.5, Hi: 2}, 0.5},
		{Exponential{Mean: 1.728}, 0},
		{LogNormal{Mu: 0, Sigma: 1}, 0},
		{Zones{K: 4, Intra: 0.5, Inter: 3}, 0.5},
		{Zones{K: 4, Intra: 5, Inter: 3}, 3},
		{Zones{K: 1, Intra: 0.5, Inter: 3}, 0.5}, // single zone: every message is intra
		{Lossy{P: 0.1, Inner: Constant{D: 2}}, 2},
		{Lossy{P: 0.1, Inner: Exponential{Mean: 1}}, 0},
	}
	for _, c := range cases {
		md, ok := c.model.(MinDelayer)
		if !ok {
			t.Fatalf("%v does not implement MinDelayer", c.model)
		}
		if got := md.MinDelay(); got != c.want {
			t.Errorf("%v.MinDelay() = %g, want %g", c.model, got, c.want)
		}
	}
}

// fixedDelay is a model without the sharding capabilities.
type fixedDelay struct{ d float64 }

func (f fixedDelay) Delay(_, _ protocol.NodeID, _ protocol.Rand) float64 { return f.d }
func (fixedDelay) Drop(_, _ protocol.NodeID, _ protocol.Rand) bool       { return false }

func TestPlanShardsErrors(t *testing.T) {
	cases := []struct {
		name    string
		model   Model
		n, s    int
		wantErr string
	}{
		{"one shard", Constant{D: 1}, 100, 1, "need ≥ 2"},
		{"more shards than nodes", Constant{D: 1}, 3, 4, "need shards ≤ n"},
		{"constant zero delay", Constant{D: 0}, 100, 2, "minimum delay 0"},
		{"exponential", Exponential{Mean: 1.728}, 100, 2, "minimum delay 0"},
		{"lognormal", LogNormal{Mu: 0, Sigma: 1}, 100, 2, "minimum delay 0"},
		{"lossy over exponential", Lossy{P: 0.01, Inner: Exponential{Mean: 1}}, 100, 2, "minimum delay 0"},
		{"no capability", fixedDelay{d: 1}, 100, 2, "MinDelayer"},
		{"zones with zero inter", Zones{K: 4, Intra: 0, Inter: 0}, 100, 2, "lookahead 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := PlanShards(c.model, c.n, c.s)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("PlanShards err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

// TestPlanShardsContiguous covers the fallback plans: plain MinDelayer
// models, the paper's Constant network among them, split nodes into
// contiguous near-equal blocks.
func TestPlanShardsContiguous(t *testing.T) {
	for _, c := range []struct {
		model Model
		want  float64
	}{
		{Constant{D: 1.728}, 1.728},
		{Constant{D: 2.5}, 2.5},
		{Uniform{Lo: 0.25, Hi: 1}, 0.25},
	} {
		shardOf, lookahead, err := PlanShards(c.model, 10, 4)
		if err != nil {
			t.Fatalf("PlanShards(%v): %v", c.model, err)
		}
		if lookahead != c.want {
			t.Errorf("PlanShards(%v) lookahead = %g, want %g", c.model, lookahead, c.want)
		}
		counts := make([]int, 4)
		for i := int32(0); i < 10; i++ {
			s := shardOf(i)
			if s < 0 || s >= 4 {
				t.Fatalf("shardOf(%d) = %d outside [0, 4)", i, s)
			}
			if i > 0 && s < shardOf(i-1) {
				t.Fatalf("shardOf not monotone at %d", i)
			}
			counts[s]++
		}
		for s, n := range counts {
			if n < 2 || n > 3 {
				t.Errorf("shard %d holds %d of 10 nodes, want a near-equal block", s, n)
			}
		}
	}
}

// TestPlanShardsZones requires the Zones plan to align shard boundaries with
// zone boundaries — the lookahead is the full inter-zone latency, and every
// cross-shard pair is cross-zone — including when shards and zone counts do
// not divide evenly.
func TestPlanShardsZones(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 8} {
		z := Zones{K: 4, Intra: 0.5, Inter: 3}
		shardOf, lookahead, err := PlanShards(z, 200, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if lookahead != z.Inter {
			t.Errorf("shards=%d: lookahead = %g, want inter-zone %g", shards, lookahead, z.Inter)
		}
		for i := int32(0); i < 200; i++ {
			want := int32(z.Zone(protocol.NodeID(i)) % shards)
			if s := shardOf(i); s != want {
				t.Fatalf("shards=%d: shardOf(%d) = %d, want zone%%shards = %d", shards, i, s, want)
			}
		}
		// The invariant the conservative window protocol rests on: the delay
		// of every cross-shard pair is at least the lookahead.
		for i := int32(0); i < 50; i++ {
			for j := int32(0); j < 50; j++ {
				if shardOf(i) != shardOf(j) {
					if d := z.Delay(protocol.NodeID(i), protocol.NodeID(j), nil); d < lookahead {
						t.Fatalf("cross-shard pair (%d,%d) has delay %g < lookahead %g", i, j, d, lookahead)
					}
				}
			}
		}
	}

	// A lossy wrapper delegates the plan to the zones beneath it.
	shardOf, lookahead, err := PlanShards(Lossy{P: 0.01, Inner: Zones{K: 4, Intra: 0.5, Inter: 3}}, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lookahead != 3 || shardOf == nil {
		t.Fatalf("lossy over zones: lookahead = %g, shardOf nil = %v", lookahead, shardOf == nil)
	}

	// A single zone offers no boundary: the planner falls back to MinDelayer
	// with contiguous blocks and the intra latency.
	_, lookahead, err = PlanShards(Zones{K: 1, Intra: 0.5, Inter: 3}, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lookahead != 0.5 {
		t.Fatalf("single-zone fallback lookahead = %g, want 0.5", lookahead)
	}
}

// zonesTable and contiguousTable are the node-to-shard tables PlanShards
// used to fill before it computed the shard per lookup; they stay here as
// the reference the computed routing must match.
func zonesTable(z Zones, n, shards int) []int32 {
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(z.Zone(protocol.NodeID(i)) % shards)
	}
	return shardOf
}

func contiguousTable(n, shards int) []int32 {
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(i * shards / n)
	}
	return shardOf
}

// TestComputedRoutingMatchesTable requires the routing function PlanShards
// returns to give every node the shard the reference table gives it, for
// zone plans and contiguous blocks alike, so a sharded run routes — and its
// golden output reads — as before.
func TestComputedRoutingMatchesTable(t *testing.T) {
	check := func(t *testing.T, m Model, n, shards int, table []int32) {
		t.Helper()
		shardOf, _, err := PlanShards(m, n, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range table {
			if got := shardOf(int32(i)); got != want {
				t.Fatalf("%v, n=%d, shards=%d: node %d in shard %d, table says %d", m, n, shards, i, got, want)
			}
		}
	}
	for _, n := range []int{2, 7, 5_000, 100_003} {
		for _, k := range []int{2, 3, 8} {
			for _, shards := range []int{2, 3, 4} {
				if shards > n {
					continue
				}
				z := Zones{K: k, Intra: 0.5, Inter: 3}
				check(t, z, n, shards, zonesTable(z, n, shards))
				check(t, Lossy{P: 0.1, Inner: z}, n, shards, zonesTable(z, n, shards))
			}
		}
	}
	// Every contiguous split up to one node per shard, except at 100 003
	// nodes, where that would be 10^10 lookups: there, the splits into up
	// to 64 shards and a few wide ones.
	for _, n := range []int{2, 7, 5_000} {
		for shards := 2; shards <= n; shards++ {
			check(t, Constant{D: 1}, n, shards, contiguousTable(n, shards))
		}
	}
	const n = 100_003
	for shards := 2; shards <= 64; shards++ {
		check(t, Constant{D: 1}, n, shards, contiguousTable(n, shards))
	}
	for _, shards := range []int{1_000, 4_096, n - 1, n} {
		check(t, Constant{D: 1}, n, shards, contiguousTable(n, shards))
	}
}
