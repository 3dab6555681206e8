// Package overlay builds and queries the communication topologies used in
// the paper's evaluation: fixed random k-out networks (each node keeps k
// random out-neighbours for the lifetime of the experiment, the paper's
// default with k = 20), Watts–Strogatz small-world networks (used for the
// chaotic power iteration experiment), plus complete graphs for tests and
// examples.
//
// Graphs are stored in compressed sparse row (CSR) form so that a
// 500,000-node, 20-out network fits comfortably in memory and neighbour scans
// are cache friendly. Offsets are 32-bit, so a graph holds at most 2³²−1
// edges; every constructor rejects a larger one. Constructors build the
// out-adjacency only; the in-adjacency, which only chaotic power iteration
// reads, is built from it on the first InNeighbors call.
package overlay

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/szte-dcs/tokenaccount/internal/parallel"
	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// Graph is a directed graph over nodes 0..N-1 in CSR form. The out-adjacency
// is built by the constructor; the in-adjacency is derived from it on first
// use, under a sync.Once. Graphs never change after construction and are safe
// for concurrent readers, including concurrent first use of the in-adjacency.
type Graph struct {
	n      int
	outOff []uint32
	outAdj []int32
	inOnce sync.Once
	inOff  []uint32 // nil until the first InNeighbors call
	inAdj  []int32
}

// maxEdges is the most edges a Graph holds: the largest 32-bit offset.
const maxEdges = math.MaxUint32

// checkEdges rejects n nodes of k out-neighbours each when their n·k edges
// do not fit the 32-bit offsets, before anything of that size is allocated.
func checkEdges(name string, n, k int) error {
	if k > 0 && n > maxEdges/k {
		return fmt.Errorf("overlay: %s: %d nodes × %d edges exceed the %d edges a graph holds", name, n, k, uint64(maxEdges))
	}
	return nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// OutDegree returns the number of out-neighbours of node i.
func (g *Graph) OutDegree(i int) int {
	return int(g.outOff[i+1] - g.outOff[i])
}

// OutNeighbors returns the out-neighbours of node i as a shared slice; the
// caller must not modify it.
func (g *Graph) OutNeighbors(i int) []int32 {
	return g.outAdj[g.outOff[i]:g.outOff[i+1]]
}

// OutHead returns the CSR head of node i: the offset of its first
// out-neighbour in OutAdjacency and its out-degree, so OutNeighbors(i) is
// OutAdjacency()[off : off+deg]. A caller that keeps the head beside other
// per-node state reaches the neighbours without reading the offsets.
func (g *Graph) OutHead(i int) (off, deg uint32) {
	return g.outOff[i], g.outOff[i+1] - g.outOff[i]
}

// OutAdjacency returns every node's out-neighbours, concatenated in node
// order (the CSR adjacency array), as a shared slice; the caller must not
// modify it.
func (g *Graph) OutAdjacency() []int32 { return g.outAdj }

// InNeighbors returns the in-neighbours of node i as a shared slice; the
// caller must not modify it.
func (g *Graph) InNeighbors(i int) []int32 {
	g.inOnce.Do(g.buildIn)
	return g.inAdj[g.inOff[i]:g.inOff[i+1]]
}

// NewFromOut builds a graph from explicit out-adjacency lists. Entries out of
// range, or more than 2³²−1 of them, cause an error; duplicate edges and
// self-loops are kept as given.
func NewFromOut(out [][]int) (*Graph, error) {
	n := len(out)
	total := 0
	for _, nbrs := range out {
		if total += len(nbrs); total > maxEdges {
			return nil, fmt.Errorf("overlay: NewFromOut: more than the %d edges a graph holds", uint64(maxEdges))
		}
	}
	g := &Graph{n: n}
	g.outOff = make([]uint32, n+1)
	total = 0
	for i, nbrs := range out {
		for _, v := range nbrs {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("overlay: node %d has out-neighbour %d outside [0,%d)", i, v, n)
			}
		}
		total += len(nbrs)
		g.outOff[i+1] = uint32(total)
	}
	g.outAdj = make([]int32, 0, total)
	for _, nbrs := range out {
		for _, v := range nbrs {
			g.outAdj = append(g.outAdj, int32(v))
		}
	}
	return g, nil
}

// buildIn derives the in-adjacency CSR from the out-adjacency. It runs once,
// from InNeighbors: most runs (push gossip, gossip learning, blockcast)
// never read the in-adjacency, and at 500,000 × 20 edges its scattered
// writes cost more than drawing the graph.
func (g *Graph) buildIn() {
	n := g.n
	inDeg := make([]uint32, n+1)
	for _, to := range g.outAdj {
		inDeg[to+1]++
	}
	g.inOff = make([]uint32, n+1)
	for i := 0; i < n; i++ {
		g.inOff[i+1] = g.inOff[i] + inDeg[i+1]
	}
	g.inAdj = make([]int32, len(g.outAdj))
	cursor := make([]uint32, n)
	copy(cursor, g.inOff[:n])
	for from := 0; from < n; from++ {
		for _, to := range g.OutNeighbors(from) {
			g.inAdj[cursor[to]] = int32(from)
			cursor[to]++
		}
	}
}

// RandomKOut builds the paper's default overlay: every node independently
// draws k distinct out-neighbours uniformly at random (excluding itself). The
// overlay is fixed for the lifetime of an experiment; the paper motivates it
// as "perhaps the simplest practical approximation of uniform peer sampling",
// implementable with k long-lived TCP connections per node. One stream draws
// every node's picks in node order, so the graph is a pure function of
// (n, k, seed), built sequentially.
func RandomKOut(n, k int, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("overlay: RandomKOut needs at least 2 nodes, got %d", n)
	}
	if k < 1 || k > n-1 {
		return nil, fmt.Errorf("overlay: RandomKOut k=%d out of range [1,%d]", k, n-1)
	}
	if err := checkEdges("RandomKOut", n, k); err != nil {
		return nil, err
	}
	g := &Graph{n: n}
	g.outOff = make([]uint32, n+1)
	g.outAdj = make([]int32, n*k)
	src := rng.New(rng.Derive(seed, 0x6f75742d6b)) // "out-k"
	// A node's picks so far are its row itself, summarized by a filter of at
	// least 16k bits over their low bits, cleared per node. A draw whose bit
	// is clear is new; one whose bit is set — at most one in 16 — is looked
	// up in the row. Dedup so costs O(k) memory instead of a mark per node
	// of the graph, and rejects a draw exactly when it is the node itself or
	// already picked: the accept/reject sequence — and the graph, and every
	// golden output derived from it — is that of the historical map-based
	// construction.
	bits := 256
	for bits < 16*k {
		bits <<= 1
	}
	seen, mask := make([]uint64, bits/64), int32(bits-1)
	for i := 0; i < n; i++ {
		row := g.outAdj[i*k : (i+1)*k]
		clear(seen)
		for j := 0; j < k; {
			v := int32(src.Intn(n))
			w, bit := (v&mask)>>6, uint64(1)<<(v&63)
			if int(v) == i || seen[w]&bit != 0 && slices.Contains(row[:j], v) {
				continue
			}
			seen[w] |= bit
			row[j] = v
			j++
		}
		g.outOff[i+1] = uint32((i + 1) * k)
	}
	return g, nil
}

// WattsStrogatz builds an undirected small-world network following Watts and
// Strogatz: a ring where every node is connected to its k nearest neighbours
// (k/2 on each side), with every edge rewired to a uniformly random target
// with probability beta. The paper uses k = 4 and beta = 0.01 for the chaotic
// power iteration experiment. The undirected edges are represented by a
// directed edge in each direction, so OutNeighbors(i) equals InNeighbors(i)
// as a set.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("overlay: WattsStrogatz needs at least 4 nodes, got %d", n)
	}
	if k < 2 || k%2 != 0 || k > n-2 {
		return nil, fmt.Errorf("overlay: WattsStrogatz k=%d must be even and in [2,%d]", k, n-2)
	}
	if !(beta >= 0 && beta <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("overlay: WattsStrogatz beta=%v out of [0,1]", beta)
	}
	// Rewiring moves edges but never adds one: the graph keeps the lattice's
	// n·k directed edges.
	if err := checkEdges("WattsStrogatz", n, k); err != nil {
		return nil, err
	}
	src := rng.New(rng.Derive(seed, 0x77732d72696e67)) // "ws-ring"
	// The evolving adjacency lives in a fixed-capacity slab (k + slack slots
	// per node) with a rare spill list for nodes whose degree grows past the
	// slack under rewiring, instead of one map per node. Membership answers —
	// the only thing the rewiring loop observes — are identical to the
	// historical map representation, so the RNG draw sequence and the final
	// graph are unchanged.
	adj := newWsAdj(n, k)
	// Ring lattice: node i is adjacent to (i±d) mod n for d = 1..k/2. All 2·
	// (k/2) values are distinct (d < n/2), so every node starts at degree k,
	// which the slab holds without spilling. Ranges are independent, so the
	// fill runs in parallel.
	_ = parallel.Ranges(n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			base := i * adj.capPer
			idx := 0
			for d := 1; d <= k/2; d++ {
				adj.slab[base+idx] = int32((i + d) % n)
				idx++
				adj.slab[base+idx] = int32((i - d + n) % n)
				idx++
			}
			adj.deg[i] = int32(k)
		}
		return nil
	})
	// Rewire each lattice edge (i, i+d) with probability beta. This phase is
	// inherently sequential: every decision consumes draws from the single
	// stream and inspects adjacency mutated by earlier decisions.
	for i := 0; i < n; i++ {
		for d := 1; d <= k/2; d++ {
			j := (i + d) % n
			if src.Float64() >= beta {
				continue
			}
			if !adj.contains(i, int32(j)) {
				continue // already rewired away from the other endpoint
			}
			// Choose a new target distinct from i and not already adjacent.
			var target int
			ok := false
			for attempts := 0; attempts < 100; attempts++ {
				target = src.Intn(n)
				if target != i && !adj.contains(i, int32(target)) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
			adj.removeEdge(i, j)
			adj.addEdge(i, target)
		}
	}
	// Emit CSR directly: prefix-sum the degrees, copy each node's slots and
	// sort them in place (adjacency order must be a pure function of the
	// seed). Rows are disjoint, so the copy+sort fans out across ranges.
	g := &Graph{n: n}
	g.outOff = make([]uint32, n+1)
	for i := 0; i < n; i++ {
		g.outOff[i+1] = g.outOff[i] + uint32(adj.deg[i])
	}
	g.outAdj = make([]int32, g.outOff[n])
	_ = parallel.Ranges(n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := g.outAdj[g.outOff[i]:g.outOff[i+1]]
			m := copy(row, adj.slab[i*adj.capPer:i*adj.capPer+min(int(adj.deg[i]), adj.capPer)])
			copy(row[m:], adj.spill[i])
			insertionSortInt32(row)
		}
		return nil
	})
	return g, nil
}

// wsSlack is the per-node degree headroom of the Watts–Strogatz adjacency
// slab. Rewiring can push a node's degree above its initial k when several
// rewired edges land on it; the slab absorbs up to wsSlack extra neighbours
// before the node spills into a side list.
const wsSlack = 8

// wsAdj is the evolving undirected adjacency used during Watts–Strogatz
// rewiring: a dense slab of capPer slots per node plus a spill map for the
// statistically rare nodes whose degree exceeds capPer.
type wsAdj struct {
	n      int
	capPer int
	deg    []int32
	slab   []int32
	spill  map[int][]int32
}

func newWsAdj(n, k int) *wsAdj {
	capPer := k + wsSlack
	return &wsAdj{
		n:      n,
		capPer: capPer,
		deg:    make([]int32, n),
		slab:   make([]int32, n*capPer),
	}
}

func (a *wsAdj) contains(u int, v int32) bool {
	d := int(a.deg[u])
	base := u * a.capPer
	for _, x := range a.slab[base : base+min(d, a.capPer)] {
		if x == v {
			return true
		}
	}
	if d > a.capPer {
		for _, x := range a.spill[u] {
			if x == v {
				return true
			}
		}
	}
	return false
}

func (a *wsAdj) addHalf(u int, v int32) {
	d := int(a.deg[u])
	if d < a.capPer {
		a.slab[u*a.capPer+d] = v
	} else {
		if a.spill == nil {
			a.spill = make(map[int][]int32)
		}
		a.spill[u] = append(a.spill[u], v)
	}
	a.deg[u] = int32(d + 1)
}

func (a *wsAdj) removeHalf(u int, v int32) {
	d := int(a.deg[u])
	base := u * a.capPer
	idx := -1
	for j := 0; j < min(d, a.capPer); j++ {
		if a.slab[base+j] == v {
			idx = j
			break
		}
	}
	if idx < 0 && d > a.capPer {
		for j, x := range a.spill[u] {
			if x == v {
				idx = a.capPer + j
				break
			}
		}
	}
	if idx < 0 {
		return
	}
	// Swap the last slot into the vacated one and shrink.
	last := d - 1
	var lastVal int32
	if last >= a.capPer {
		sp := a.spill[u]
		lastVal = sp[last-a.capPer]
		a.spill[u] = sp[:last-a.capPer]
	} else {
		lastVal = a.slab[base+last]
	}
	if idx != last {
		if idx >= a.capPer {
			a.spill[u][idx-a.capPer] = lastVal
		} else {
			a.slab[base+idx] = lastVal
		}
	}
	a.deg[u] = int32(last)
}

func (a *wsAdj) addEdge(u, v int) {
	a.addHalf(u, int32(v))
	a.addHalf(v, int32(u))
}

func (a *wsAdj) removeEdge(u, v int) {
	a.removeHalf(u, int32(v))
	a.removeHalf(v, int32(u))
}

// insertionSortInt32 sorts a short row in place without the closure and
// interface overhead of the sort package; adjacency rows are ~k entries.
func insertionSortInt32(row []int32) {
	for i := 1; i < len(row); i++ {
		v := row[i]
		j := i - 1
		for j >= 0 && row[j] > v {
			row[j+1] = row[j]
			j--
		}
		row[j+1] = v
	}
}

// Complete builds a complete directed graph (every node links to every other
// node). Intended for small tests only.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("overlay: Complete needs at least 2 nodes, got %d", n)
	}
	if err := checkEdges("Complete", n, n-1); err != nil {
		return nil, err
	}
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out[i] = append(out[i], j)
			}
		}
	}
	return NewFromOut(out)
}
