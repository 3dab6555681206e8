package netmodel

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// pinnedModels is the closed model set as PlanShards sees it: every model
// bare, under Lossy, and zones under Lossy twice.
func pinnedModels() []Model {
	bare := []Model{
		Constant{D: 1.728},
		Uniform{Lo: 0.5, Hi: 2},
		Exponential{Mean: 1.728},
		LogNormal{Mu: 0, Sigma: 1},
		Zones{K: 1, Intra: 0.5, Inter: 3},
		Zones{K: 4, Intra: 0.5, Inter: 3},
		Zones{K: 4, Intra: 5, Inter: 3},
	}
	models := append([]Model(nil), bare...)
	for _, m := range bare {
		models = append(models, Lossy{P: 0.1, Inner: m})
	}
	return append(models, Lossy{P: 0.1, Inner: Lossy{P: 0.2, Inner: Zones{K: 4, Intra: 0.5, Inter: 3}}})
}

// describePlan renders what PlanShards returns for one case: the error, or
// the lookahead and the shard of every node — listed at n ≤ 16, as the
// FNV-1a hash of that listing above.
func describePlan(m Model, n, shards int) string {
	shardOf, lookahead, err := PlanShards(m, n, shards)
	if err != nil {
		return "error " + err.Error()
	}
	digits := make([]byte, n)
	for i := range digits {
		digits[i] = byte('0' + shardOf(int32(i)))
	}
	if n <= 16 {
		return fmt.Sprintf("lookahead %g shards %s", lookahead, digits)
	}
	h := fnv.New64a()
	h.Write(digits)
	return fmt.Sprintf("lookahead %g shards fnv:%016x", lookahead, h.Sum64())
}

// TestPlanShardsPinned pins every plan over the closed model set at 2 and 4
// shards and 10 and 1000 nodes: the lookahead or the error, and the shard of
// every node. The expected values are recorded output, not derived, so a
// change to any plan shows here.
func TestPlanShardsPinned(t *testing.T) {
	for _, m := range pinnedModels() {
		for _, shards := range []int{2, 4} {
			for _, n := range []int{10, 1000} {
				key := fmt.Sprintf("%s/%d/%d", modelLabel(m), shards, n)
				if got := describePlan(m, n, shards); got != pinnedPlans[key] {
					t.Errorf("%s: PlanShards = %q, want %q", key, got, pinnedPlans[key])
				}
			}
		}
	}
}

// pinnedPlans holds describePlan of every case of TestPlanShardsPinned, by
// model/shards/n.
var pinnedPlans = map[string]string{
	"constant:1.728/2/10":                      "lookahead 1.728 shards 0000011111",
	"constant:1.728/2/1000":                    "lookahead 1.728 shards fnv:75a7303bcf9c4ad9",
	"constant:1.728/4/10":                      "lookahead 1.728 shards 0001122233",
	"constant:1.728/4/1000":                    "lookahead 1.728 shards fnv:978431bcfa3090c5",
	"uniform:0.5:2/2/10":                       "lookahead 0.5 shards 0000011111",
	"uniform:0.5:2/2/1000":                     "lookahead 0.5 shards fnv:75a7303bcf9c4ad9",
	"uniform:0.5:2/4/10":                       "lookahead 0.5 shards 0001122233",
	"uniform:0.5:2/4/1000":                     "lookahead 0.5 shards fnv:978431bcfa3090c5",
	"exponential:1.728/2/10":                   "error netmodel: model exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"exponential:1.728/2/1000":                 "error netmodel: model exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"exponential:1.728/4/10":                   "error netmodel: model exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"exponential:1.728/4/1000":                 "error netmodel: model exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lognormal:0:1/2/10":                       "error netmodel: model lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lognormal:0:1/2/1000":                     "error netmodel: model lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lognormal:0:1/4/10":                       "error netmodel: model lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lognormal:0:1/4/1000":                     "error netmodel: model lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"zones:1:0.5:3/2/10":                       "lookahead 0.5 shards 0000011111",
	"zones:1:0.5:3/2/1000":                     "lookahead 0.5 shards fnv:75a7303bcf9c4ad9",
	"zones:1:0.5:3/4/10":                       "lookahead 0.5 shards 0001122233",
	"zones:1:0.5:3/4/1000":                     "lookahead 0.5 shards fnv:978431bcfa3090c5",
	"zones:4:0.5:3/2/10":                       "lookahead 3 shards 1110111001",
	"zones:4:0.5:3/2/1000":                     "lookahead 3 shards fnv:4dfd4c3c9851ff2f",
	"zones:4:0.5:3/4/10":                       "lookahead 3 shards 3310111203",
	"zones:4:0.5:3/4/1000":                     "lookahead 3 shards fnv:89e2f3b125142059",
	"zones:4:5:3/2/10":                         "lookahead 3 shards 1110111001",
	"zones:4:5:3/2/1000":                       "lookahead 3 shards fnv:4dfd4c3c9851ff2f",
	"zones:4:5:3/4/10":                         "lookahead 3 shards 3310111203",
	"zones:4:5:3/4/1000":                       "lookahead 3 shards fnv:89e2f3b125142059",
	"lossy:0.1:constant:1.728/2/10":            "lookahead 1.728 shards 0000011111",
	"lossy:0.1:constant:1.728/2/1000":          "lookahead 1.728 shards fnv:75a7303bcf9c4ad9",
	"lossy:0.1:constant:1.728/4/10":            "lookahead 1.728 shards 0001122233",
	"lossy:0.1:constant:1.728/4/1000":          "lookahead 1.728 shards fnv:978431bcfa3090c5",
	"lossy:0.1:uniform:0.5:2/2/10":             "lookahead 0.5 shards 0000011111",
	"lossy:0.1:uniform:0.5:2/2/1000":           "lookahead 0.5 shards fnv:75a7303bcf9c4ad9",
	"lossy:0.1:uniform:0.5:2/4/10":             "lookahead 0.5 shards 0001122233",
	"lossy:0.1:uniform:0.5:2/4/1000":           "lookahead 0.5 shards fnv:978431bcfa3090c5",
	"lossy:0.1:exponential:1.728/2/10":         "error netmodel: model lossy:0.1:exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:exponential:1.728/2/1000":       "error netmodel: model lossy:0.1:exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:exponential:1.728/4/10":         "error netmodel: model lossy:0.1:exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:exponential:1.728/4/1000":       "error netmodel: model lossy:0.1:exponential:1.728 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:lognormal:0:1/2/10":             "error netmodel: model lossy:0.1:lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:lognormal:0:1/2/1000":           "error netmodel: model lossy:0.1:lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:lognormal:0:1/4/10":             "error netmodel: model lossy:0.1:lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:lognormal:0:1/4/1000":           "error netmodel: model lossy:0.1:lognormal:0:1 has minimum delay 0; sharded execution needs a positive minimum cross-shard delay",
	"lossy:0.1:zones:1:0.5:3/2/10":             "lookahead 0.5 shards 0000011111",
	"lossy:0.1:zones:1:0.5:3/2/1000":           "lookahead 0.5 shards fnv:75a7303bcf9c4ad9",
	"lossy:0.1:zones:1:0.5:3/4/10":             "lookahead 0.5 shards 0001122233",
	"lossy:0.1:zones:1:0.5:3/4/1000":           "lookahead 0.5 shards fnv:978431bcfa3090c5",
	"lossy:0.1:zones:4:0.5:3/2/10":             "lookahead 3 shards 1110111001",
	"lossy:0.1:zones:4:0.5:3/2/1000":           "lookahead 3 shards fnv:4dfd4c3c9851ff2f",
	"lossy:0.1:zones:4:0.5:3/4/10":             "lookahead 3 shards 3310111203",
	"lossy:0.1:zones:4:0.5:3/4/1000":           "lookahead 3 shards fnv:89e2f3b125142059",
	"lossy:0.1:zones:4:5:3/2/10":               "lookahead 3 shards 1110111001",
	"lossy:0.1:zones:4:5:3/2/1000":             "lookahead 3 shards fnv:4dfd4c3c9851ff2f",
	"lossy:0.1:zones:4:5:3/4/10":               "lookahead 3 shards 3310111203",
	"lossy:0.1:zones:4:5:3/4/1000":             "lookahead 3 shards fnv:89e2f3b125142059",
	"lossy:0.1:lossy:0.2:zones:4:0.5:3/2/10":   "lookahead 3 shards 1110111001",
	"lossy:0.1:lossy:0.2:zones:4:0.5:3/2/1000": "lookahead 3 shards fnv:4dfd4c3c9851ff2f",
	"lossy:0.1:lossy:0.2:zones:4:0.5:3/4/10":   "lookahead 3 shards 3310111203",
	"lossy:0.1:lossy:0.2:zones:4:0.5:3/4/1000": "lookahead 3 shards fnv:89e2f3b125142059",
}

// fixedDelay is a model outside the package's closed set.
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
		{"no capability", fixedDelay{d: 1}, 100, 2, "minimum delay 0; sharded execution needs a positive minimum cross-shard delay"},
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

// TestPlanShardsContiguous covers the plans without zone structure: models
// with a positive minimum delay, the paper's Constant network among them,
// split nodes into contiguous near-equal blocks.
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

	// A single zone offers no boundary: the plan falls back to contiguous
	// blocks and the intra latency.
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
