package runtime

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// TestAvailabilityMatchesBoolOracle drives random Set sequences — repeated
// sets of the same state and out-of-range ids included — against a []bool
// oracle, over sizes on both sides of the 64-bit word boundary, and compares
// every observable after every step.
func TestAvailabilityMatchesBoolOracle(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		a := NewAvailability(n)
		oracle := make([]bool, n)
		for i := range oracle {
			oracle[i] = true
		}
		check := func(step int) {
			t.Helper()
			offline := 0
			for i, on := range oracle {
				if a.Online(i) != on {
					t.Fatalf("n=%d step %d: Online(%d) = %v, oracle %v", n, step, i, a.Online(i), on)
				}
				if !on {
					offline++
				}
			}
			if a.N() != n || a.offline != offline || a.AllOnline() != (offline == 0) {
				t.Fatalf("n=%d step %d: N = %d, Offline = %d, AllOnline = %v; oracle has %d of %d offline",
					n, step, a.N(), a.offline, a.AllOnline(), offline, n)
			}
			for _, i := range []int{-1, -64, n, n + 1, n + 64, 1 << 40} {
				if a.Online(i) {
					t.Fatalf("n=%d step %d: out-of-range id %d reads online", n, step, i)
				}
			}
		}
		check(-1)
		src := rng.New(uint64(n) + 1)
		for step := 0; step < 2000; step++ {
			i := src.Intn(n+8) - 4 // a few ids fall off either end
			online := src.Intn(3) == 0
			a.Set(i, online)
			if i >= 0 && i < n {
				oracle[i] = online
			}
			check(step)
		}
		for i := range oracle {
			a.Set(i, true)
		}
		if !a.AllOnline() {
			t.Fatalf("n=%d: not AllOnline after bringing every node back", n)
		}
	}
}

// referenceSelect is the historical two-pass peer sampler, kept as the oracle
// for selectOnlineNeighbor: count the online out-neighbours, draw one Intn
// over the count, select.
func referenceSelect(nbrs []int32, online []bool, r protocol.Rand) (protocol.NodeID, bool) {
	count := 0
	for _, v := range nbrs {
		if online[v] {
			count++
		}
	}
	if count == 0 {
		return protocol.NoNode, false
	}
	j := r.Intn(count)
	for _, v := range nbrs {
		if !online[v] {
			continue
		}
		if j == 0 {
			return protocol.NodeID(v), true
		}
		j--
	}
	return protocol.NoNode, false
}

// peerHost is the part of a Host the overlay sampler reads: the graph's
// adjacency, every node's CSR head in its state row, filled as NewHost's
// build loop fills it, and the online set.
func peerHost(t *testing.T, g *overlay.Graph, avail *Availability) *Host {
	t.Helper()
	h := &Host{cfg: Config{Graph: g}, avail: avail, adj: g.OutAdjacency()}
	slab, err := protocol.NewSlab(g.N(), core.PurelyProactive{}, h, (*overlayPeers)(h))
	if err != nil {
		t.Fatal(err)
	}
	h.slab = slab
	for i := 0; i < g.N(); i++ {
		h.setPeerHead(i)
	}
	return h
}

// TestSelectOnlineNeighborMatchesTwoPassReference checks, over random k-out
// graphs and random availability — everyone online (the fast path), a random
// subset, one survivor, nobody — plus a node without out-neighbours, that the
// sampler returns the reference's peer and leaves the generator in the
// reference's state, i.e. consumed the same draws.
func TestSelectOnlineNeighborMatchesTwoPassReference(t *testing.T) {
	const n = 60
	src := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		out := make([][]int, n)
		for i := 1; i < n; i++ { // node 0 keeps out-degree zero
			for k := 1 + src.Intn(8); k > 0; k-- {
				if v := src.Intn(n); v != i {
					out[i] = append(out[i], v)
				}
			}
		}
		g, err := overlay.NewFromOut(out)
		if err != nil {
			t.Fatal(err)
		}
		avail := NewAvailability(n)
		h := peerHost(t, g, &avail)
		online := make([]bool, n)
		for mode, pOnline := range []float64{1, 0.7, 0.2, 0, -1} {
			survivor := src.Intn(n)
			for i := range online {
				online[i] = src.Float64() < pOnline || (pOnline < 0 && i == survivor)
				avail.Set(i, online[i])
			}
			if mode == 0 && !avail.AllOnline() {
				t.Fatal("mode 0 must exercise the all-online fast path")
			}
			got, want := rng.New(uint64(trial)), rng.New(uint64(trial))
			for i := 0; i < n; i++ {
				gp, gok := h.selectOnlineNeighbor(i, got)
				wp, wok := referenceSelect(g.OutNeighbors(i), online, want)
				if gp != wp || gok != wok {
					t.Fatalf("trial %d mode %d node %d: got (%d, %v), reference (%d, %v)", trial, mode, i, gp, gok, wp, wok)
				}
				if *got != *want {
					t.Fatalf("trial %d mode %d node %d: generator state diverged from the reference", trial, mode, i)
				}
			}
		}
	}
}

// countingRand wraps a generator and records every Intn bound and the
// number of Float64 calls, so a test can pin how a sampler draws.
type countingRand struct {
	src    *rng.Source
	bounds []int
	floats int
}

func (c *countingRand) Intn(n int) int {
	c.bounds = append(c.bounds, n)
	return c.src.Intn(n)
}

func (c *countingRand) Float64() float64 {
	c.floats++
	return c.src.Float64()
}

// TestSelectOnlineNeighborDrawsLikeNaiveReference is the property test of
// the branch-free draw: over random graphs with out-degrees 0–40 and random
// online sets — everyone, nobody, a random share, one survivor, and a set
// shorter than the graph, whose last ids read offline — every node's draw
// returns the reference's peer from one Intn whose bound is the number of
// online neighbours, and draws nothing when that number is zero.
func TestSelectOnlineNeighborDrawsLikeNaiveReference(t *testing.T) {
	const n = 120
	src := rng.New(11)
	perm := make([]int, n)
	for trial := 0; trial < 60; trial++ {
		out := make([][]int, n)
		for i := range out {
			for j := range perm {
				perm[j] = j
			}
			for j := n - 1; j > 0; j-- {
				r := src.Intn(j + 1)
				perm[j], perm[r] = perm[r], perm[j]
			}
			degree := src.Intn(41)
			for _, v := range perm {
				if len(out[i]) == degree {
					break
				}
				if v != i {
					out[i] = append(out[i], v)
				}
			}
		}
		g, err := overlay.NewFromOut(out)
		if err != nil {
			t.Fatal(err)
		}
		for mode, pOnline := range []float64{1, 0, 0.5, 0.1, 0.9, -1, 2} {
			slots := n
			if pOnline == 2 {
				slots, pOnline = n-7, 0.5
			}
			avail := NewAvailability(slots)
			h := peerHost(t, g, &avail)
			online := make([]bool, n)
			survivor := src.Intn(n)
			for i := range online {
				online[i] = i < slots && (src.Float64() < pOnline || (pOnline < 0 && i == survivor))
				avail.Set(i, online[i])
			}
			got := &countingRand{src: rng.New(uint64(trial))}
			want := rng.New(uint64(trial))
			for i := 0; i < n; i++ {
				count := 0
				for _, v := range g.OutNeighbors(i) {
					if online[v] {
						count++
					}
				}
				got.bounds = got.bounds[:0]
				gp, gok := h.selectOnlineNeighbor(i, got)
				wp, wok := referenceSelect(g.OutNeighbors(i), online, want)
				if gp != wp || gok != wok {
					t.Fatalf("trial %d mode %d node %d: got (%d, %v), reference (%d, %v)", trial, mode, i, gp, gok, wp, wok)
				}
				switch {
				case got.floats != 0:
					t.Fatalf("trial %d mode %d node %d: %d Float64 draws, want none", trial, mode, i, got.floats)
				case count == 0 && len(got.bounds) != 0:
					t.Fatalf("trial %d mode %d node %d: no online neighbour, but drew Intn%v", trial, mode, i, got.bounds)
				case count > 0 && (len(got.bounds) != 1 || got.bounds[0] != count):
					t.Fatalf("trial %d mode %d node %d: drew Intn%v, want one Intn(%d)", trial, mode, i, got.bounds, count)
				}
			}
		}
	}
}

// TestOverlaySelectsOnlyNeighbors checks the Host's overlay sampler — the
// slab's peer selector whenever Config.Peers is nil — on an all-online
// network: every draw is an out-neighbour, and the neighbours are hit
// roughly uniformly.
func TestOverlaySelectsOnlyNeighbors(t *testing.T) {
	g, _ := overlay.RandomKOut(50, 5, 3)
	avail := NewAvailability(50)
	var peers protocol.SharedPeerSelector = (*overlayPeers)(peerHost(t, g, &avail))
	neighbors := map[protocol.NodeID]bool{}
	for _, v := range g.OutNeighbors(7) {
		neighbors[protocol.NodeID(v)] = true
	}
	src := rng.New(9)
	counts := map[protocol.NodeID]int{}
	for i := 0; i < 5000; i++ {
		p, ok := peers.SelectPeerOf(7, src)
		if !ok {
			t.Fatal("SelectPeerOf failed")
		}
		if !neighbors[p] {
			t.Fatalf("selected %d which is not a neighbour", p)
		}
		counts[p]++
	}
	// All 5 neighbours should be hit roughly uniformly (expected 1000 each).
	if len(counts) != 5 {
		t.Fatalf("only %d distinct neighbours selected, want 5", len(counts))
	}
	for p, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("neighbour %d selected %d times, want ≈ 1000", p, c)
		}
	}
}

// TestOverlayRespectsLiveness checks that the overlay sampler only returns
// online neighbours: with one survivor it returns that one every time, and
// with every neighbour offline it reports failure.
func TestOverlayRespectsLiveness(t *testing.T) {
	g, _ := overlay.RandomKOut(20, 4, 5)
	avail := NewAvailability(20)
	var peers protocol.SharedPeerSelector = (*overlayPeers)(peerHost(t, g, &avail))
	nbrs := g.OutNeighbors(0)
	onlyAlive := protocol.NodeID(nbrs[2])
	for i := 0; i < 20; i++ {
		avail.Set(i, protocol.NodeID(i) == onlyAlive)
	}
	src := rng.New(1)
	for i := 0; i < 100; i++ {
		p, ok := peers.SelectPeerOf(0, src)
		if !ok || p != onlyAlive {
			t.Fatalf("SelectPeerOf = (%d, %v), want (%d, true)", p, ok, onlyAlive)
		}
	}
	avail.Set(int(onlyAlive), false)
	if _, ok := peers.SelectPeerOf(0, src); ok {
		t.Error("SelectPeerOf succeeded with all neighbours offline")
	}
}
