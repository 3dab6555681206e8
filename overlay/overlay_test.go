package overlay

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

func TestNewFromOut(t *testing.T) {
	g, err := NewFromOut([][]int{{1, 2}, {2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.edges() != 4 {
		t.Fatalf("N=%d Edges=%d, want 3, 4", g.N(), g.edges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(2) != 1 {
		t.Errorf("out-degrees wrong")
	}
	if g.inDegree(2) != 2 {
		t.Errorf("InDegree(2) = %d, want 2", g.inDegree(2))
	}
	if !g.hasEdge(0, 1) || g.hasEdge(1, 0) {
		t.Error("HasEdge mismatch")
	}
	in := g.InNeighbors(2)
	found := map[int32]bool{}
	for _, v := range in {
		found[v] = true
	}
	if !found[0] || !found[1] {
		t.Errorf("InNeighbors(2) = %v, want {0,1}", in)
	}
}

// TestOutHeadLocatesOutNeighbors checks that a node's CSR head, applied to
// the shared adjacency, yields exactly its out-neighbours, degree-0 nodes
// included.
func TestOutHeadLocatesOutNeighbors(t *testing.T) {
	g, err := NewFromOut([][]int{{1, 2}, {}, {0, 1, 2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	adj := g.OutAdjacency()
	if len(adj) != g.edges() {
		t.Fatalf("adjacency holds %d entries, want %d", len(adj), g.edges())
	}
	for i := 0; i < g.N(); i++ {
		off, deg := g.OutHead(i)
		if int(deg) != g.OutDegree(i) || !slices.Equal(adj[off:off+deg], g.OutNeighbors(i)) {
			t.Errorf("node %d: head (%d, %d) gives %v, want %v", i, off, deg, adj[off:off+deg], g.OutNeighbors(i))
		}
	}
}

func TestNewFromOutRejectsOutOfRange(t *testing.T) {
	if _, err := NewFromOut([][]int{{5}}); err == nil {
		t.Error("out-of-range neighbour accepted")
	}
	if _, err := NewFromOut([][]int{{-1}, {0}}); err == nil {
		t.Error("negative neighbour accepted")
	}
}

func TestRandomKOutProperties(t *testing.T) {
	const n, k = 500, 20
	g, err := RandomKOut(n, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n || g.edges() != n*k {
		t.Fatalf("N=%d Edges=%d, want %d, %d", g.N(), g.edges(), n, n*k)
	}
	for i := 0; i < n; i++ {
		if g.OutDegree(i) != k {
			t.Fatalf("OutDegree(%d) = %d, want %d", i, g.OutDegree(i), k)
		}
		seen := map[int32]bool{}
		for _, v := range g.OutNeighbors(i) {
			if int(v) == i {
				t.Fatalf("node %d has a self-loop", i)
			}
			if seen[v] {
				t.Fatalf("node %d has duplicate neighbour %d", i, v)
			}
			seen[v] = true
		}
	}
	if !g.isWeaklyConnected() {
		t.Error("20-out graph with 500 nodes should be weakly connected")
	}
	if !g.isStronglyConnected() {
		t.Error("20-out graph with 500 nodes should be strongly connected")
	}
}

func TestRandomKOutDeterministicBySeed(t *testing.T) {
	a, _ := RandomKOut(100, 5, 7)
	b, _ := RandomKOut(100, 5, 7)
	c, _ := RandomKOut(100, 5, 8)
	same := func(x, y *Graph) bool {
		if x.edges() != y.edges() {
			return false
		}
		for i := 0; i < x.N(); i++ {
			xn, yn := x.OutNeighbors(i), y.OutNeighbors(i)
			if len(xn) != len(yn) {
				return false
			}
			for j := range xn {
				if xn[j] != yn[j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed produced different graphs")
	}
	if same(a, c) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomKOutValidation(t *testing.T) {
	if _, err := RandomKOut(1, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RandomKOut(10, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RandomKOut(10, 10, 0); err == nil {
		t.Error("k=n accepted")
	}
}

func TestWattsStrogatzNoRewiring(t *testing.T) {
	g, err := WattsStrogatz(20, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pure ring lattice: every node has exactly 4 neighbours, the two on
	// each side, and the graph is symmetric.
	for i := 0; i < 20; i++ {
		if g.OutDegree(i) != 4 {
			t.Fatalf("OutDegree(%d) = %d, want 4", i, g.OutDegree(i))
		}
		for _, v := range g.OutNeighbors(i) {
			if !g.hasEdge(int(v), i) {
				t.Fatalf("edge %d->%d not symmetric", i, v)
			}
		}
	}
	if !g.hasEdge(0, 1) || !g.hasEdge(0, 2) || !g.hasEdge(0, 19) || !g.hasEdge(0, 18) {
		t.Error("ring lattice neighbours missing")
	}
	if g.hasEdge(0, 3) {
		t.Error("unexpected edge 0->3 in lattice with k=4")
	}
}

func TestWattsStrogatzRewiringKeepsSymmetryAndConnectivity(t *testing.T) {
	g, err := WattsStrogatz(5000, 4, 0.01, 99)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for i := 0; i < g.N(); i++ {
		for _, v := range g.OutNeighbors(i) {
			if !g.hasEdge(int(v), i) {
				t.Fatalf("edge %d->%d not symmetric after rewiring", i, v)
			}
			if int(v) == i {
				t.Fatalf("self-loop at %d", i)
			}
		}
		edges += g.OutDegree(i)
	}
	// Rewiring preserves the edge count (2*n*k/2 directed edges).
	if edges != 5000*4 {
		t.Errorf("directed edge count = %d, want %d", edges, 5000*4)
	}
	if !g.isWeaklyConnected() {
		t.Error("Watts-Strogatz graph should remain connected at beta=0.01")
	}
}

func TestWattsStrogatzSmallWorldShortensDiameter(t *testing.T) {
	lattice, err := WattsStrogatz(400, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rewired, err := WattsStrogatz(400, 4, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dl, dr := lattice.diameter(), rewired.diameter()
	if dl <= 0 || dr <= 0 {
		t.Fatalf("diameters %d, %d should be positive", dl, dr)
	}
	if dr >= dl {
		t.Errorf("rewiring did not shorten diameter: lattice %d, rewired %d", dl, dr)
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	cases := []struct {
		n, k int
		beta float64
	}{
		{3, 2, 0.1},
		{10, 3, 0.1},
		{10, 0, 0.1},
		{10, 4, -0.1},
		{10, 4, 1.5},
		{10, 4, math.NaN()},
	}
	for _, c := range cases {
		if _, err := WattsStrogatz(c.n, c.k, c.beta, 0); err == nil {
			t.Errorf("WattsStrogatz(%d,%d,%v) accepted", c.n, c.k, c.beta)
		}
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.edges() != 20 {
		t.Errorf("Edges = %d, want 20", g.edges())
	}
	if g.diameter() != 1 {
		t.Errorf("Diameter = %d, want 1", g.diameter())
	}
	if _, err := Complete(1); err == nil {
		t.Error("Complete(1) accepted")
	}
}

func TestDiameterUnreachable(t *testing.T) {
	g, err := NewFromOut([][]int{{1}, {0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if d := g.diameter(); d != -1 {
		t.Errorf("Diameter = %d, want -1 for disconnected graph", d)
	}
	if g.isStronglyConnected() {
		t.Error("disconnected graph reported strongly connected")
	}
}

func TestQuickInOutEdgeCountsMatch(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%80) + 10
		k := int(kRaw%5) + 1
		g, err := RandomKOut(n, k, seed)
		if err != nil {
			return false
		}
		// Sum of in-degrees equals sum of out-degrees equals n*k, and every
		// out-edge appears exactly once as an in-edge.
		inSum := 0
		for i := 0; i < n; i++ {
			inSum += g.inDegree(i)
		}
		if inSum != n*k {
			return false
		}
		for i := 0; i < n; i++ {
			for _, v := range g.OutNeighbors(i) {
				found := false
				for _, u := range g.InNeighbors(int(v)) {
					if int(u) == i {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWattsStrogatzDeterministicBySeed regression-tests the adjacency-order
// fix: the rewired small world must be a pure function of the seed, including
// the order of each neighbour list (which downstream random peer picks index
// into). Before the fix the lists were collected from a map, whose iteration
// order is randomized per process run.
func TestWattsStrogatzDeterministicBySeed(t *testing.T) {
	a, err := WattsStrogatz(200, 4, 0.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WattsStrogatz(200, 4, 0.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		av, bv := a.OutNeighbors(i), b.OutNeighbors(i)
		if len(av) != len(bv) {
			t.Fatalf("node %d: degree %d vs %d", i, len(av), len(bv))
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("node %d: neighbour %d is %d vs %d", i, j, av[j], bv[j])
			}
		}
	}
}

// eagerIn returns the in-adjacency buildIn derives for g, built eagerly on a
// twin that shares g's out-adjacency, so g's own lazy state is untouched.
func eagerIn(g *Graph) *Graph {
	ref := &Graph{n: g.n, outOff: g.outOff, outAdj: g.outAdj}
	ref.buildIn()
	return ref
}

// TestInAdjacencyBuiltOnFirstUse checks, for every constructor, that the
// in-adjacency does not exist until it is first read and is then exactly what
// an eager buildIn produces: same rows in the same order, each row the
// sources of the node's in-edges in source order (duplicates and self-loops
// included).
func TestInAdjacencyBuiltOnFirstUse(t *testing.T) {
	build := map[string]func() (*Graph, error){
		"RandomKOut":    func() (*Graph, error) { return RandomKOut(300, 7, 1) },
		"WattsStrogatz": func() (*Graph, error) { return WattsStrogatz(300, 4, 0.2, 1) },
		"Complete":      func() (*Graph, error) { return Complete(6) },
		"NewFromOut":    func() (*Graph, error) { return NewFromOut([][]int{{0, 1, 1}, {2, 2, 0}, {}, {3, 0, 3}}) },
	}
	for name, b := range build {
		t.Run(name, func(t *testing.T) {
			g, err := b()
			if err != nil {
				t.Fatal(err)
			}
			if g.inOff != nil || g.inAdj != nil {
				t.Fatal("constructor built the in-adjacency")
			}
			ref := eagerIn(g)
			naive := make([][]int32, g.N())
			for from := 0; from < g.N(); from++ {
				for _, to := range g.OutNeighbors(from) {
					naive[to] = append(naive[to], int32(from))
				}
			}
			for i := 0; i < g.N(); i++ {
				if got := g.inDegree(i); got != len(naive[i]) {
					t.Fatalf("InDegree(%d) = %d, want %d", i, got, len(naive[i]))
				}
				if got := g.InNeighbors(i); !slices.Equal(got, naive[i]) || !slices.Equal(got, ref.InNeighbors(i)) {
					t.Fatalf("InNeighbors(%d) = %v, want %v", i, got, naive[i])
				}
			}
			if !slices.Equal(g.inOff, ref.inOff) || !slices.Equal(g.inAdj, ref.inAdj) {
				t.Error("lazy in-adjacency arrays differ from the eager ones")
			}
		})
	}
}

// TestInAdjacencyConcurrentFirstUse has 8 goroutines read a fresh graph's
// in-adjacency at once (run it under -race): the first use must build it
// exactly once, and every reader must see the complete arrays.
func TestInAdjacencyConcurrentFirstUse(t *testing.T) {
	g, err := RandomKOut(2000, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := eagerIn(g)
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for k := 0; k < g.N(); k++ {
				i := (k + r*g.N()/readers) % g.N()
				if g.inDegree(i) != ref.inDegree(i) || !slices.Equal(g.InNeighbors(i), ref.InNeighbors(i)) {
					t.Errorf("reader %d: node %d in-adjacency differs from the eager one", r, i)
					return
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
}

// TestWsAdjSpill exercises the spill path of the rewiring adjacency directly:
// a node pushed past its slab capacity must keep answering membership queries
// and removals exactly like a set.
func TestWsAdjSpill(t *testing.T) {
	const k = 2
	a := newWsAdj(64, k)
	u := 3
	total := a.capPer + 5 // force 5 spilled entries
	for v := 0; v < total; v++ {
		a.addHalf(u, int32(10+v))
	}
	if int(a.deg[u]) != total {
		t.Fatalf("deg = %d, want %d", a.deg[u], total)
	}
	for v := 0; v < total; v++ {
		if !a.contains(u, int32(10+v)) {
			t.Fatalf("missing member %d", 10+v)
		}
	}
	if a.contains(u, 9) || a.contains(u, int32(10+total)) {
		t.Fatal("contains reports non-member")
	}
	// Remove from the middle of the slab (forces a spill→slab swap), from the
	// spill region, and from the end, verifying set semantics throughout.
	for _, v := range []int32{11, int32(10 + a.capPer + 2), int32(10 + total - 1), 10} {
		if !a.contains(u, v) {
			t.Fatalf("pre-remove: %d should be a member", v)
		}
		a.removeHalf(u, v)
		if a.contains(u, v) {
			t.Fatalf("post-remove: %d still a member", v)
		}
	}
	if int(a.deg[u]) != total-4 {
		t.Fatalf("deg after removals = %d, want %d", a.deg[u], total-4)
	}
}

// epochKOut is the historical RandomKOut, kept as the reference the
// pick-set construction must reproduce: the same stream, with a mark per
// node of the graph stamped with the picking node's epoch for dedup.
func epochKOut(n, k int, seed uint64) (off []int64, adj []int32) {
	off = make([]int64, n+1)
	adj = make([]int32, n*k)
	src := rng.New(rng.Derive(seed, 0x6f75742d6b)) // "out-k"
	mark := make([]int32, n)
	idx := 0
	for i := 0; i < n; i++ {
		epoch := int32(i) + 1
		for picked := 0; picked < k; {
			v := int32(src.Intn(n))
			if int(v) == i || mark[v] == epoch {
				continue
			}
			mark[v] = epoch
			adj[idx] = v
			idx++
			picked++
		}
		off[i+1] = int64(idx)
	}
	return off, adj
}

// TestRandomKOutMatchesEpochReference pins RandomKOut to the graph every
// recorded output was produced on: its CSR arrays equal the epoch-stamped
// reference's exactly, over sizes from the smallest graph to 10^5 nodes,
// the paper's k = 20 among the degrees, and the complete k = n−1 where the
// dedup rejects most draws.
func TestRandomKOutMatchesEpochReference(t *testing.T) {
	for _, n := range []int{2, 3, 10, 300, 5_000, 100_000} {
		ks := []int{1, 7, 20}
		if n <= 300 {
			ks = append(ks, n-1)
		}
		for _, k := range ks {
			if k > n-1 {
				continue
			}
			for seed := uint64(1); seed <= 5; seed++ {
				g, err := RandomKOut(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				off, adj := epochKOut(n, k, seed)
				if !slices.Equal(g.outAdj, adj) {
					t.Fatalf("n=%d k=%d seed=%d: adjacency differs from the epoch reference", n, k, seed)
				}
				for i, o := range off {
					if int64(g.outOff[i]) != o {
						t.Fatalf("n=%d k=%d seed=%d: offset %d is %d, reference %d", n, k, seed, i, g.outOff[i], o)
					}
				}
			}
		}
	}
}

// TestConstructorsRejectMoreEdgesThanOffsetsHold checks that a graph past
// 2³²−1 edges is refused by its constructor, before it is allocated.
func TestConstructorsRejectMoreEdgesThanOffsetsHold(t *testing.T) {
	// 2^16+1 rows sharing one 2^16-entry row: 2^32 + 2^16 edges, 2 MB.
	row := make([]int, 1<<16)
	out := make([][]int, 1<<16+1)
	for i := range out {
		out[i] = row
	}
	for name, build := range map[string]func() (*Graph, error){
		"RandomKOut":    func() (*Graph, error) { return RandomKOut(1<<28, 16, 1) },
		"WattsStrogatz": func() (*Graph, error) { return WattsStrogatz(1<<28, 16, 0.1, 1) },
		"Complete":      func() (*Graph, error) { return Complete(1<<16 + 1) },
		"NewFromOut":    func() (*Graph, error) { return NewFromOut(out) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s accepted more than %d edges", name, uint64(maxEdges))
		}
	}
}
