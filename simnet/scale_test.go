package simnet

import (
	"fmt"
	stdruntime "runtime"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/gossiplearning"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
)

// heapAlloc returns the live-heap size after a full collection — the
// number the scale assertions below bound.
func heapAlloc() uint64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMillionNodeSmoke is the CI scale smoke: it assembles a full
// 10^6-node network — overlay, environment, host slabs, parallel build —
// runs it for a few proactive periods, and asserts the two properties the
// struct-of-arrays refactor exists for: a warmed-up period advances the
// simulation without touching the allocator at all, and the whole run fits
// in a bounded heap. It runs in -short mode on purpose; wall clock is a few
// seconds.
func TestMillionNodeSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation and footprint assertions measure the plain runtime; see race_off_test.go")
	}
	const (
		n     = 1_000_000
		delta = 172.8
	)
	g, err := overlay.RandomKOut(n, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	walkers := make([]gossiplearning.Walker, n)
	strategy := core.Strategy(core.MustRandomized(5, 10))
	host, err := hostrt.NewHost(env, hostrt.Config{
		Graph:    g,
		Strategy: strategy,
		NewApp:   func(i int) protocol.Application { return &walkers[i] },
		Delta:    delta,
		Network:  netmodel.Constant{D: 1.728},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two periods warm the event queue to its high-water mark; the third is
	// the measured window. With zero initial tokens the horizon stays below
	// the randomized strategy's spending threshold, so the window is pure
	// tick-and-queue traffic — exactly one event per node per period, the
	// most deterministic load there is — and the queue, the scheduler and
	// the per-node tick path must stay exactly off the allocator. (The full
	// send → deliver → receive path is pinned allocation-free at small scale
	// by TestSteadyStateMessagePathAllocs.)
	horizon := 2 * delta
	if err := host.Run(horizon); err != nil {
		t.Fatal(err)
	}
	// The window records every allocation's stack in the memory profile
	// (MemProfileRate 1), so a failure names what allocated; recording
	// allocates nothing, and a clean window has nothing to record. The window
	// counts every malloc of the process, and the Go runtime sometimes starts
	// an OS thread inside it (runtime.newm allocates the thread's m, g and
	// profiling stack); those allocations are logged, and any other fails.
	var before, after stdruntime.MemStats
	base := memProfile()
	rate := stdruntime.MemProfileRate
	stdruntime.MemProfileRate = 1
	stdruntime.ReadMemStats(&before)
	horizon += delta
	err = host.Run(horizon)
	stdruntime.ReadMemStats(&after)
	stdruntime.MemProfileRate = rate
	if err != nil {
		t.Fatal(err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		sites, threadStart := allocSites(base, &before, &after) // before the report allocates
		if allocs > threadStart {
			t.Errorf("warmed-up 10^6-node period allocated %d objects, %d of them starting an OS thread, want 0 others",
				allocs, threadStart)
		} else {
			t.Logf("warmed-up 10^6-node period allocated %d objects, all of them starting an OS thread", allocs)
		}
		logAllocWindow(t, &before, &after)
		for _, site := range sites {
			t.Log(site)
		}
	}

	// The full standing network — the 20-out overlay's out-adjacency (the
	// in-adjacency is built only if read, and nothing here reads it),
	// node/state slabs, walker slab, pending events — measured live; the
	// bound is 4× the measured 0.25 GiB so real regressions (per-node
	// objects creeping back, an eager in-adjacency) fail long before the
	// container hurts.
	const heapBound = 1 << 30
	heap := heapAlloc()
	if heap > heapBound {
		t.Errorf("10^6-node run holds %d bytes of live heap, want ≤ %d", heap, heapBound)
	}
	t.Logf("10^6-node run: live heap %.2f GiB", float64(heap)/(1<<30))
	if onlineCount(host) != n {
		t.Errorf("online nodes: %d, want %d", onlineCount(host), n)
	}
}

// Build-path byte budgets: heap bytes allocated per node by one build at
// 10^5 nodes, measured with go1.24 on linux/amd64 (GOMAXPROCS 1). The guard
// allows buildBytesTolerance times these.
const (
	koutBuildBytesPerNode = 84  // overlay.RandomKOut(n, 20, 1)
	wsBuildBytesPerNode   = 120 // overlay.WattsStrogatz(n, 10, 0.2, 1)
	hostBuildBytesPerNode = 172 // simnet.NewEnv + walker slab + runtime.NewHost
	buildBytesTolerance   = 1.2
	// buildAllocHeadroom is how many more allocations a 10^5-node build may
	// make than a 10^4-node one: a handful are runtime-internal (worker
	// goroutines, GC metadata) and jitter between runs; anything per node
	// shows up as tens of thousands.
	buildAllocHeadroom = 16
)

// TestBuildPathIsConstantInN guards the struct-of-arrays build path: each
// build costs O(1) allocations in n — at 10^5 nodes at most
// buildAllocHeadroom more than at 10^4 — and stays within its byte budget
// per node at 10^5; each case reports the two promises as its "allocs" and
// "bytes" subtests; the allocations are the fewest of three measurements
// (see fewestAllocs), the bytes are measured once. The overlays are the k-out graph of the gossip
// experiments and a Watts–Strogatz small world rewired enough (β = 0.2) to
// exercise the dedup path; the host build is the environment, the walker
// slab and the whole Host over a pre-built k-out graph, at GOMAXPROCS 8 so the
// build ranges and goroutines it starts do not depend on the machine. The
// 10^6-node footprint is bounded by TestMillionNodeSmoke.
func TestBuildPathIsConstantInN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation and footprint assertions measure the plain runtime; see race_off_test.go")
	}
	strategy := core.Strategy(core.MustRandomized(5, 10))
	hostBuild := func(t *testing.T, n int) func() {
		g, err := overlay.RandomKOut(n, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			env, err := NewEnv(EnvConfig{N: n, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			walkers := make([]gossiplearning.Walker, n)
			defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(8))
			if _, err := hostrt.NewHost(env, hostrt.Config{
				Graph:    g,
				Strategy: strategy,
				NewApp:   func(i int) protocol.Application { return &walkers[i] },
				Delta:    172.8,
				Network:  netmodel.Constant{D: 1.728},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	overlayBuild := func(build func(n int) (*overlay.Graph, error)) func(t *testing.T, n int) func() {
		return func(t *testing.T, n int) func() {
			return func() {
				if _, err := build(n); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		// build does the set-up for n nodes and returns the build to measure.
		build        func(t *testing.T, n int) func()
		bytesPerNode float64
	}{
		{"overlay/kout", overlayBuild(func(n int) (*overlay.Graph, error) { return overlay.RandomKOut(n, 20, 1) }), koutBuildBytesPerNode},
		{"overlay/ws", overlayBuild(func(n int) (*overlay.Graph, error) { return overlay.WattsStrogatz(n, 10, 0.2, 1) }), wsBuildBytesPerNode},
		{"host", hostBuild, hostBuildBytesPerNode},
	} {
		t.Run(c.name, func(t *testing.T) {
			const small, large = 10_000, 100_000
			smallAllocs := fewestAllocs(c.build(t, small))
			build := c.build(t, large)
			largeAllocs := fewestAllocs(build)
			perNode := float64(allocatedBytes(build)) / large
			t.Logf("%d nodes: %.0f allocs; %d nodes: %.0f allocs, %.1f B/node", small, smallAllocs, large, largeAllocs, perNode)
			t.Run("allocs", func(t *testing.T) {
				if largeAllocs > smallAllocs+buildAllocHeadroom {
					t.Errorf("build allocates %.0f times at %d nodes and %.0f at %d, want at most %d more",
						largeAllocs, large, smallAllocs, small, buildAllocHeadroom)
				}
			})
			t.Run("bytes", func(t *testing.T) {
				if limit := buildBytesTolerance * c.bytesPerNode; perNode > limit {
					t.Errorf("build allocates %.1f B/node at %d nodes, want ≤ %.1f (%.0f measured × %g)",
						perNode, large, limit, c.bytesPerNode, buildBytesTolerance)
				}
			})
		})
	}
}

// fewestAllocs returns the fewest allocations of three testing.AllocsPerRun
// measurements of one call of f. A build starts goroutines, and each start
// that finds no idle OS thread allocates one: at 10^4 nodes that made the
// host build's count vary from 48 to 88 between runs, more than
// buildAllocHeadroom, while a per-node allocation adds thousands to every
// measurement alike.
func fewestAllocs(f func()) float64 {
	fewest := testing.AllocsPerRun(1, f)
	for range 2 {
		fewest = min(fewest, testing.AllocsPerRun(1, f))
	}
	return fewest
}

// allocatedBytes returns the heap bytes one call of f allocates, measured
// like testing.AllocsPerRun measures allocations: at GOMAXPROCS 1, so the
// count does not depend on how many goroutines the machine would run.
func allocatedBytes(f func()) uint64 {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	var before, after stdruntime.MemStats
	stdruntime.ReadMemStats(&before)
	f()
	stdruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// logAllocWindow reports what a measurement window allocated, so a failure of
// the zero-allocation assertion comes with evidence: the collections that ran
// in the window and every size class whose malloc count grew.
func logAllocWindow(t *testing.T, before, after *stdruntime.MemStats) {
	t.Helper()
	t.Logf("window: %d GC cycles, %d bytes allocated", after.NumGC-before.NumGC, after.TotalAlloc-before.TotalAlloc)
	large := after.Mallocs - before.Mallocs
	for i := range after.BySize {
		if d := after.BySize[i].Mallocs - before.BySize[i].Mallocs; d > 0 {
			t.Logf("window: size class %d B: %d mallocs", after.BySize[i].Size, d)
			large -= d
		}
	}
	if large > 0 {
		t.Logf("window: %d mallocs above the largest size class", large)
	}
}

// memProfile returns the records of the memory profile, which holds the
// allocations sampled up to the last completed collection.
func memProfile() []stdruntime.MemProfileRecord {
	n, _ := stdruntime.MemProfile(nil, true)
	for {
		recs := make([]stdruntime.MemProfileRecord, n+64)
		m, ok := stdruntime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// allocSites describes the stacks that allocated in the window between the
// two MemStats, base being the memory profile read just before it: a
// collection publishes the allocations sampled since the last one, and each
// stack and object size whose count grew past base is listed with its
// frames, if the window allocated objects of that size. The window samples
// every allocation (MemProfileRate 1); the size filter drops most of what the
// default rate sampled between the last collection and the window.
// threadStart counts the listed objects whose stack runs through
// runtime.newm: the Go runtime starting an OS thread, not the code under
// test.
func allocSites(base []stdruntime.MemProfileRecord, before, after *stdruntime.MemStats) (sites []string, threadStart uint64) {
	grew := map[int64]bool{}
	large := after.Mallocs - before.Mallocs
	for i := range after.BySize {
		if d := after.BySize[i].Mallocs - before.BySize[i].Mallocs; d > 0 {
			grew[int64(after.BySize[i].Size)] = true
			large -= d
		}
	}
	largest := int64(after.BySize[len(after.BySize)-1].Size)
	total := int64(after.TotalAlloc - before.TotalAlloc)
	stdruntime.GC()
	type site struct {
		stack [32]uintptr
		size  int64
	}
	objects := map[site]int64{}
	count := func(recs []stdruntime.MemProfileRecord, sign int64) {
		for _, r := range recs {
			if r.AllocObjects > 0 {
				objects[site{r.Stack0, r.AllocBytes / r.AllocObjects}] += sign * r.AllocObjects
			}
		}
	}
	count(memProfile(), 1)
	count(base, -1)
	for s, n := range objects {
		if n <= 0 || s.size > total || !grew[s.size] && (s.size <= largest || large == 0) {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "window: %d objects of %d B allocated at:", n, s.size)
		r := stdruntime.MemProfileRecord{Stack0: s.stack}
		frames := stdruntime.CallersFrames(r.Stack())
		newm := false
		for more := true; more; {
			var f stdruntime.Frame
			f, more = frames.Next()
			if f.Function == "runtime.newm" {
				newm = true
			}
			fmt.Fprintf(&b, "\n    %s\n        %s:%d", f.Function, f.File, f.Line)
		}
		sites = append(sites, b.String())
		if newm {
			threadStart += uint64(n)
		}
	}
	return sites, threadStart
}
