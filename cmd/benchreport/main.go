// Command benchreport runs the paper-figure and simulator benchmarks through
// testing.Benchmark and emits a machine-readable JSON report with ns/op,
// allocs/op, bytes/op and events/sec per benchmark. The committed BENCH.json
// at the repository root is the tracked baseline (regenerated whenever a PR
// moves the needle); every PR can diff its own report against it to track
// the performance trajectory.
//
// Usage:
//
//	benchreport                    # full dimensions, writes BENCH.json
//	benchreport -short -out -      # CI dimensions, report to stdout
//	benchreport -short -check      # gate against the committed BENCH.json
//	benchreport -check -baseline OLD.json
//
// With -check the exit status is non-zero if any guarded benchmark (the
// steady-state simulator throughput, the allocation-free scheduler queues,
// and the build-path benchmarks) reports more allocs/op than the baseline
// file — the CI allocation regression gate. Guarded allocation counts are
// size-independent (the build benchmarks run at fixed sizes in both modes),
// so a -short run checks cleanly against a full-size baseline. Benchmarks
// marked bytes-guarded (the build path) additionally gate on bytes/op
// within a tolerance, and every entry carries the HeapAlloc high-water mark
// seen while it ran (peak_bytes), gated generously between same-mode runs.
// Benchmarks marked events-guarded (the sharded simulator throughput)
// additionally gate on events/sec, but only when the run is comparable to
// the baseline: same mode, same GOMAXPROCS and CPU count, and at least as
// many schedulable cores as the benchmark has shards — throughput on
// mismatched hardware says nothing, so mismatches skip the gate with a note
// instead of failing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
	"github.com/szte-dcs/tokenaccount/simnet"
	"github.com/szte-dcs/tokenaccount/workload"

	"github.com/szte-dcs/tokenaccount/apps/blockcast"
	"github.com/szte-dcs/tokenaccount/apps/gossiplearning"
)

// BenchResult is one benchmark's measurements as serialized into the report.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerOp and EventsPerSec report discrete-event scheduler
	// throughput where the benchmark can attribute events (0 otherwise).
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Shards is the worker shard count of a sharded-engine benchmark
	// (0 for sequential benchmarks).
	Shards int `json:"shards,omitempty"`
	// PeakBytes is the HeapAlloc high-water mark observed by a background
	// sampler while the benchmark ran — the resident-footprint axis the
	// per-op numbers cannot show (a build benchmark may allocate little per
	// op yet hold a large live slab).
	PeakBytes int64 `json:"peak_bytes,omitempty"`
	// Guarded marks benchmarks whose allocs/op participate in the -check
	// regression gate.
	Guarded bool `json:"guarded,omitempty"`
	// BytesGuarded marks benchmarks whose bytes/op additionally participate
	// in the -check gate (with tolerance: amortized slab growth shifts a few
	// percent with the iteration count).
	BytesGuarded bool `json:"bytes_guarded,omitempty"`
	// EventsGuarded marks benchmarks whose events/sec participates in the
	// -check throughput gate (when the host matches the baseline).
	EventsGuarded bool `json:"events_guarded,omitempty"`
}

// Report is the JSON document benchreport emits. GoMaxProcs and NumCPU pin
// the host the numbers were measured on: events/sec is meaningless across
// differently-sized machines (a 4-shard run on a single schedulable core
// measures scheduling overhead, not speedup), so the throughput gate and any
// human reading the trajectory need them next to the numbers.
type Report struct {
	Tool       string        `json:"tool"`
	GoVersion  string        `json:"go_version"`
	Mode       string        `json:"mode"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// spec describes one benchmark: a factory returning the function to measure
// at the requested scale. The bench function reports attributable scheduler
// events through b.ReportMetric("events/op") so main can read them back from
// BenchmarkResult.Extra.
type spec struct {
	name          string
	guarded       bool
	bytesGuarded  bool
	eventsGuarded bool
	shards        int
	bench         func(short bool) func(b *testing.B)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out          = fs.String("out", "BENCH.json", "report destination (- for stdout)")
		short        = fs.Bool("short", false, "reduced benchmark dimensions (CI mode)")
		check        = fs.Bool("check", false, "fail if a guarded benchmark regresses against the -baseline report")
		baselinePath = fs.String("baseline", "BENCH.json", "baseline report for -check")
		quiet        = fs.Bool("q", false, "suppress per-benchmark progress on stderr")
		only         = fs.String("only", "", "run only the benchmarks whose name matches this regexp (the -check gates skip missing entries)")
		baseline     *Report
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var filter *regexp.Regexp
	if *only != "" {
		var err error
		filter, err = regexp.Compile(*only)
		if err != nil {
			fmt.Fprintln(stderr, "benchreport: -only:", err)
			return 2
		}
	}
	if *check {
		var err error
		baseline, err = readReport(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "benchreport:", err)
			return 2
		}
	}
	report := Report{
		Tool:       "benchreport",
		GoVersion:  runtime.Version(),
		Mode:       mode(*short),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, s := range specs() {
		if filter != nil && !filter.MatchString(s.name) {
			continue
		}
		if !*quiet {
			fmt.Fprintf(stderr, "benchreport: running %s...\n", s.name)
		}
		stopPeak := samplePeak()
		r := testing.Benchmark(s.bench(*short))
		peak := stopPeak()
		br := BenchResult{
			Name:          s.name,
			Iterations:    r.N,
			NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:   r.AllocsPerOp(),
			BytesPerOp:    r.AllocedBytesPerOp(),
			PeakBytes:     peak,
			Shards:        s.shards,
			Guarded:       s.guarded,
			BytesGuarded:  s.bytesGuarded,
			EventsGuarded: s.eventsGuarded,
		}
		if ev, ok := r.Extra["events/op"]; ok && br.NsPerOp > 0 {
			br.EventsPerOp = ev
			br.EventsPerSec = ev / br.NsPerOp * 1e9
		}
		report.Benchmarks = append(report.Benchmarks, br)
	}
	if err := writeReport(report, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 2
	}
	if baseline != nil {
		regressed := checkAllocs(report, *baseline, stderr)
		if checkEvents(report, *baseline, stderr) {
			regressed = true
		}
		if checkPeak(report, *baseline, stderr) {
			regressed = true
		}
		if regressed {
			return 1
		}
		fmt.Fprintln(stderr, "benchreport: guarded benchmarks within baseline")
	}
	return 0
}

// samplePeak starts a background goroutine polling runtime.ReadMemStats for
// the HeapAlloc high-water mark and returns a function that stops it and
// reports the peak. The ~25ms cadence keeps the stop-the-world cost of
// ReadMemStats negligible against the benchmark; transient spikes between
// samples go unseen, which is why the peak gate carries a generous tolerance.
func samplePeak() (stop func() int64) {
	quit := make(chan struct{})
	out := make(chan int64, 1)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-quit:
				out <- int64(peak)
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-out
	}
}

func mode(short bool) string {
	if short {
		return "short"
	}
	return "full"
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

func writeReport(r Report, out string, stdout io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// bytesTolerance is the factor a bytes-guarded benchmark's bytes/op may grow
// over the baseline before -check fails: looser than the exact allocs gate
// because amortized slab doubling lands differently depending on where b.N
// stops, tighter than the throughput gate because total allocated bytes do
// not depend on scheduling.
const bytesTolerance = 1.2

// buildAllocHeadroom is the absolute allocs/op slack granted to build-path
// (bytes-guarded) entries; see the comment in checkAllocs.
const buildAllocHeadroom = 16

// checkAllocs compares guarded benchmarks against the baseline and reports
// whether any regressed: allocs/op exactly, and bytes/op within
// bytesTolerance for the bytes-guarded entries. Benchmarks missing from
// either side are skipped: the gate protects existing guarantees, it does
// not freeze the benchmark set.
func checkAllocs(current, baseline Report, stderr io.Writer) bool {
	base := map[string]BenchResult{}
	for _, b := range baseline.Benchmarks {
		if b.Guarded {
			base[b.Name] = b
		}
	}
	regressed := false
	for _, b := range current.Benchmarks {
		if !b.Guarded {
			continue
		}
		ref, ok := base[b.Name]
		if !ok {
			continue
		}
		// Steady-state entries gate exactly: their op is deterministic, so
		// one extra alloc is a real per-event regression. Build-path entries
		// (the bytes-guarded ones) get a small absolute headroom — a whole
		// host build lands at ~100 allocations total, and a handful of them
		// are runtime-internal (worker goroutines, GC metadata) and jitter
		// by a few between runs; a per-node regression would show up as
		// thousands, far beyond the headroom.
		limit := ref.AllocsPerOp
		if b.BytesGuarded {
			limit += buildAllocHeadroom
		}
		if b.AllocsPerOp > limit {
			fmt.Fprintf(stderr, "benchreport: ALLOC REGRESSION: %s reports %d allocs/op, baseline %d\n",
				b.Name, b.AllocsPerOp, ref.AllocsPerOp)
			regressed = true
		}
		if b.BytesGuarded && ref.BytesPerOp > 0 &&
			float64(b.BytesPerOp) > bytesTolerance*float64(ref.BytesPerOp) {
			fmt.Fprintf(stderr, "benchreport: BYTES REGRESSION: %s reports %d bytes/op, baseline %d (tolerance %.0f%%)\n",
				b.Name, b.BytesPerOp, ref.BytesPerOp, (bytesTolerance-1)*100)
			regressed = true
		}
	}
	return regressed
}

// Peak-gate thresholds: the HeapAlloc high-water mark is sampled, so it sees
// GC timing as much as live-set size — the gate only fires on entries big
// enough for the live set to dominate (peakFloorBytes) and only past a wide
// margin (peakTolerance). Like the events gate it needs comparable runs, but
// mode alone decides that: peak footprint does not depend on core count.
const (
	peakTolerance  = 2.5
	peakFloorBytes = 32 << 20
)

// checkPeak compares the sampled HeapAlloc high-water mark of every
// benchmark present on both sides against the baseline, skipping — with a
// note — when the modes differ (benchmark sizes, and so footprints, change
// with the mode). It reports whether any entry blew past the tolerance.
func checkPeak(current, baseline Report, stderr io.Writer) bool {
	if current.Mode != baseline.Mode {
		fmt.Fprintf(stderr, "benchreport: peak_bytes gate skipped: mode %s vs baseline %s\n", current.Mode, baseline.Mode)
		return false
	}
	base := map[string]BenchResult{}
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	regressed := false
	for _, b := range current.Benchmarks {
		ref, ok := base[b.Name]
		if !ok || ref.PeakBytes < peakFloorBytes || b.PeakBytes < peakFloorBytes {
			continue
		}
		if float64(b.PeakBytes) > peakTolerance*float64(ref.PeakBytes) {
			fmt.Fprintf(stderr, "benchreport: PEAK MEMORY REGRESSION: %s peaks at %d bytes, baseline %d (tolerance %.1fx)\n",
				b.Name, b.PeakBytes, ref.PeakBytes, peakTolerance)
			regressed = true
		}
	}
	return regressed
}

// eventsTolerance is the fraction of baseline events/sec an events-guarded
// benchmark may drop to before -check fails. Generous, because throughput is
// far noisier than allocation counts even on identical hardware.
const eventsTolerance = 0.5

// checkEvents compares events-guarded benchmarks' events/sec against the
// baseline and reports whether any regressed below the tolerance. The
// comparison only means anything between comparable runs, so the gate skips
// — with a note, never a failure — when the mode or the host differs from
// the baseline, or when a benchmark has more shards than schedulable cores
// (it would measure scheduling overhead, not throughput).
func checkEvents(current, baseline Report, stderr io.Writer) bool {
	if current.Mode != baseline.Mode {
		fmt.Fprintf(stderr, "benchreport: events/sec gate skipped: mode %s vs baseline %s\n", current.Mode, baseline.Mode)
		return false
	}
	if current.GoMaxProcs != baseline.GoMaxProcs || current.NumCPU != baseline.NumCPU {
		fmt.Fprintf(stderr, "benchreport: events/sec gate skipped: host mismatch (GOMAXPROCS %d vs %d, NumCPU %d vs %d)\n",
			current.GoMaxProcs, baseline.GoMaxProcs, current.NumCPU, baseline.NumCPU)
		return false
	}
	base := map[string]BenchResult{}
	for _, b := range baseline.Benchmarks {
		if b.EventsGuarded {
			base[b.Name] = b
		}
	}
	regressed := false
	for _, b := range current.Benchmarks {
		if !b.EventsGuarded {
			continue
		}
		ref, ok := base[b.Name]
		if !ok || ref.EventsPerSec <= 0 {
			continue
		}
		if b.Shards > current.GoMaxProcs {
			fmt.Fprintf(stderr, "benchreport: events/sec gate skipped for %s: %d shards > GOMAXPROCS %d\n",
				b.Name, b.Shards, current.GoMaxProcs)
			continue
		}
		if b.EventsPerSec < eventsTolerance*ref.EventsPerSec {
			fmt.Fprintf(stderr, "benchreport: THROUGHPUT REGRESSION: %s reports %.3g events/sec, baseline %.3g (tolerance %.0f%%)\n",
				b.Name, b.EventsPerSec, ref.EventsPerSec, eventsTolerance*100)
			regressed = true
		}
	}
	return regressed
}

// specs returns the benchmark set: the Figure 2–5 reproductions, the
// steady-state simulator throughput (sequential and sharded), and the
// scheduler queue micro-benchmark for every queue kind.
func specs() []spec {
	figures := []struct {
		name string
		run  func(opt experiment.Options) (*experiment.FigureResult, error)
	}{
		{"Fig2GossipLearning", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure2(experiment.GossipLearning, o)
		}},
		{"Fig2PushGossip", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure2(experiment.PushGossip, o)
		}},
		{"Fig2ChaoticIteration", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure2(experiment.ChaoticIteration, o)
		}},
		{"Fig3GossipLearning", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure3(experiment.GossipLearning, o)
		}},
		{"Fig3PushGossip", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure3(experiment.PushGossip, o)
		}},
		{"Fig4GossipLearning", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure4(experiment.GossipLearning, o)
		}},
		{"Fig4PushGossip", func(o experiment.Options) (*experiment.FigureResult, error) {
			return experiment.Figure4(experiment.PushGossip, o)
		}},
	}
	var out []spec
	for _, f := range figures {
		f := f
		out = append(out, spec{name: f.name, bench: func(short bool) func(*testing.B) {
			opt := figureOptions(f.name, short)
			return func(b *testing.B) {
				b.ReportAllocs()
				events := 0.0
				for i := 0; i < b.N; i++ {
					res, err := f.run(opt)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range res.Results {
						events += r.EventsProcessed * float64(r.Config.Repetitions)
					}
				}
				b.ReportMetric(events/float64(b.N), "events/op")
			}
		}})
	}
	out = append(out, spec{name: "Fig5Tokens", bench: func(short bool) func(*testing.B) {
		opt := figureOptions("Fig5Tokens", short)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := experiment.Figure5(opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}})
	for _, kind := range []sim.QueueKind{sim.QueueSlab, sim.QueueCalendar} {
		kind := kind
		out = append(out, spec{
			name:    "SimulatorThroughput/" + kind.String(),
			guarded: true,
			bench:   func(short bool) func(*testing.B) { return throughputBench(kind, nil, short) },
		})
	}
	// The same steady-state workload under an exponential latency model:
	// inter-delivery gaps lose the near-constant structure of the paper's
	// setup, which is precisely the regime the calendar queue's Brown width
	// estimation has to cope with. Guarded, because the model path must stay
	// allocation-free too.
	for _, kind := range []sim.QueueKind{sim.QueueSlab, sim.QueueCalendar} {
		kind := kind
		out = append(out, spec{
			name:    "SimulatorThroughputExpNet/" + kind.String(),
			guarded: true,
			bench: func(short bool) func(*testing.B) {
				return throughputBench(kind, netmodel.Exponential{Mean: 1.728}, short)
			},
		})
	}
	// The blockcast message path end to end: word-encoded announce/pull/block
	// gossip, transaction batching, and the periodic commit scan, on both
	// allocation-free queue kinds. Guarded: steady-state block dissemination
	// is committed to stay off the allocator, per-message size accounting
	// included.
	for _, kind := range []sim.QueueKind{sim.QueueSlab, sim.QueueCalendar} {
		kind := kind
		out = append(out, spec{
			name:    "BlockcastMessagePath/" + kind.String(),
			guarded: true,
			bench:   func(short bool) func(*testing.B) { return blockcastBench(kind, short) },
		})
	}
	// The build path: overlay construction and full host assembly (env,
	// state slabs, per-node RNG streams, round scheduling) at fixed sizes —
	// the same in short and full mode, so a CI run checks cleanly against a
	// full baseline. Guarded on allocs AND bytes: the struct-of-arrays
	// refactor's guarantee is that building n nodes costs O(1) allocations
	// in slabs, not O(n) in objects, and the bytes gate keeps the slabs
	// themselves from quietly growing.
	out = append(out, spec{
		name:         "OverlayBuild/kout",
		guarded:      true,
		bytesGuarded: true,
		bench:        func(short bool) func(*testing.B) { return overlayBuildBench("kout") },
	}, spec{
		name:         "OverlayBuild/ws",
		guarded:      true,
		bytesGuarded: true,
		bench:        func(short bool) func(*testing.B) { return overlayBuildBench("ws") },
	})
	for _, n := range []int{100_000, 1_000_000} {
		n := n
		out = append(out, spec{
			name:         fmt.Sprintf("HostBuild/n=%d", n),
			guarded:      true,
			bytesGuarded: true,
			bench:        func(short bool) func(*testing.B) { return hostBuildBench(n) },
		})
	}
	// The sharded engine on a Figure 4/5-style zoned workload: identical
	// model and scale across shard counts, so the entries read directly as a
	// speedup column. shards=1 routes through the sequential engine and
	// anchors the comparison. Guarded on events/sec (the throughput these
	// shards exist to buy), gated only on hosts comparable to the baseline —
	// see checkEvents. Not alloc-guarded: at 10^6 nodes the calendar queue's
	// per-bucket arrays keep finding new high-water marks for a long tail of
	// operations (amortized growth, by design), so an exact zero is not a
	// stable property at this scale; the allocation-free guarantee of the
	// cross-shard delivery path itself is pinned exactly by the
	// AllocsPerRun = 0 tests in the sim package.
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		out = append(out, spec{
			name:          fmt.Sprintf("SimulatorThroughputSharded/shards=%d", shards),
			eventsGuarded: true,
			shards:        shards,
			bench:         func(short bool) func(*testing.B) { return shardedThroughputBench(shards, short) },
		})
	}
	for _, kind := range []sim.QueueKind{sim.QueueSlab, sim.QueueCalendar} {
		kind := kind
		out = append(out, spec{
			name:    "SchedulerQueue/" + kind.String(),
			guarded: true,
			bench:   func(short bool) func(*testing.B) { return schedulerBench(kind) },
		})
	}
	// Every built-in workload generator family, sampled steady-state. All are
	// alloc-guarded: arrival sampling sits on the simulation hot path (one
	// Next per injected update), so the committed guarantee is 0 allocs/op —
	// including the time-warped families, whose profile inversion must stay
	// bracket-and-bisect in place. Replay is exercised by the workload
	// package's AllocsPerRun test instead (a finite stream cannot fill b.N).
	for _, wl := range []struct{ name, spec string }{
		{"interval", "interval:17.28"},
		{"poisson", "poisson:0.5"},
		{"pareto-onoff", "pareto-onoff:2:30:90:1.5"},
		{"diurnal", "diurnal:3600:0.8:poisson:0.5"},
		{"flashcrowd", "flashcrowd:3600:20:600:poisson:0.5"},
	} {
		wl := wl
		out = append(out, spec{
			name:    "WorkloadSampling/" + wl.name,
			guarded: true,
			bench:   func(short bool) func(*testing.B) { return workloadSamplingBench(wl.spec) },
		})
	}
	return out
}

// workloadSink keeps the sampled arrival times observable so the compiler
// cannot elide the Next calls under measurement.
var workloadSink float64

// workloadSamplingBench measures one arrival-process sample per op, after a
// short warm-up that moves the generator past its initial transient (the
// flash-crowd onset, the first ON period). Its allocs/op is the committed
// zero-allocation guarantee of the workload dimension.
func workloadSamplingBench(specStr string) func(b *testing.B) {
	return func(b *testing.B) {
		parsed, err := workload.ParseSpec(specStr)
		if err != nil {
			b.Fatal(err)
		}
		a := parsed.New(workload.ArrivalSeed(1))
		for i := 0; i < 1024; i++ {
			workloadSink = a.Next()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			workloadSink = a.Next()
		}
		b.ReportMetric(1, "events/op")
	}
}

// overlayBuildBench measures one overlay construction per op at a fixed
// 100k-node size: the k-out graph of the gossip experiments and a
// Watts–Strogatz small world with enough rewiring (β=0.2) to exercise the
// slab-dedup path. Alloc counts are seed-deterministic (the spill map
// contents depend only on the draw sequence), so the exact gate holds.
func overlayBuildBench(kind string) func(b *testing.B) {
	const n = 100_000
	build := func() (*overlay.Graph, error) { return overlay.RandomKOut(n, 20, 1) }
	if kind == "ws" {
		build = func() (*overlay.Graph, error) { return overlay.WattsStrogatz(n, 10, 0.2, 1) }
	}
	return func(b *testing.B) {
		if _, err := build(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// hostBuildBench measures one full network assembly per op over a pre-built
// graph: simulated environment, the host's state slabs and per-node RNG
// streams, application state, and the initial round scheduling, using the
// parallel build path. The strategy is boxed once outside the loop — sharing
// one immutable strategy value across nodes is the intended calling
// convention, and it keeps the measurement about the host, not the caller's
// factory. One untimed warm-up build settles runtime pools so allocs/op is
// exact.
func hostBuildBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		const delta = 172.8
		g, err := overlay.RandomKOut(n, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		strategy := core.Strategy(core.MustRandomized(5, 10))
		// A fixed worker count keeps the goroutine and closure allocations
		// of the parallel build identical across hosts, so the alloc gate
		// compares like with like regardless of the runner's core count.
		const workers = 8
		build := func() {
			env, err := simnet.NewEnv(simnet.EnvConfig{N: n, Seed: 1, TransferDelay: 1.728})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			walkers := make([]gossiplearning.Walker, n)
			if _, err := hostrt.NewHost(env, hostrt.Config{
				Graph:        g,
				Strategy:     func(int) core.Strategy { return strategy },
				NewApp:       func(i int) protocol.Application { return &walkers[i] },
				Delta:        delta,
				BuildWorkers: workers,
			}); err != nil {
				b.Fatal(err)
			}
		}
		build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build()
		}
	}
}

// figureOptions scales the figure benchmarks: full mode matches the
// bench_test.go figure benchmarks, short mode fits a CI push.
func figureOptions(name string, short bool) experiment.Options {
	opt := experiment.Options{N: 300, Rounds: 100, Repetitions: 1, Seed: 1}
	if name == "Fig4GossipLearning" || name == "Fig4PushGossip" {
		opt.N = 2000 // Figure 4 is the large-scale figure
	}
	if name == "Fig5Tokens" {
		opt.Rounds = 150
	}
	if short {
		opt.N, opt.Rounds = 120, 30
		if name == "Fig4GossipLearning" || name == "Fig4PushGossip" {
			opt.N = 400
		}
	}
	return opt
}

// throughputBench measures the steady-state message path exactly like
// BenchmarkSimulatorThroughput: network assembly and warm-up happen outside
// the timed region, one op advances virtual time by one proactive period.
// Its allocs/op is the committed zero-allocation guarantee. A non-nil
// network model replaces the constant transfer delay with per-message
// sampled latencies, covering the variable-gap event mix.
func throughputBench(kind sim.QueueKind, network netmodel.Model, short bool) func(b *testing.B) {
	n, warmup := 1000, 50
	if short {
		n, warmup = 300, 50
	}
	return func(b *testing.B) {
		const delta = 172.8
		g, err := overlay.RandomKOut(n, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		env, err := simnet.NewEnv(simnet.EnvConfig{N: n, Seed: 1, TransferDelay: 1.728, Queue: kind})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hostrt.NewHost(env, hostrt.Config{
			Graph:    g,
			Strategy: func(int) core.Strategy { return core.MustRandomized(5, 10) },
			NewApp:   func(int) protocol.Application { return gossiplearning.NewWalker() },
			Delta:    delta,
			Network:  network,
		}); err != nil {
			b.Fatal(err)
		}
		horizon := float64(warmup) * delta
		if err := env.Run(horizon); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := env.Processed()
		for i := 0; i < b.N; i++ {
			horizon += delta
			if err := env.Run(horizon); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(env.Processed()-start)/float64(b.N), "events/op")
	}
}

// blockcastNet adapts a runtime.Host to blockcast.Net for the standalone
// benchmark assembly (the experiment driver plays this role in real runs).
type blockcastNet struct{ host *hostrt.Host }

func (n *blockcastNet) Send(from, to protocol.NodeID, p protocol.Payload) {
	n.host.Send(from, to, p)
}

func (n *blockcastNet) Respond(from, to protocol.NodeID, p protocol.Payload) bool {
	return n.host.Node(int(from)).RespondPayload(to, p)
}

// blockcastBench measures the steady-state blockcast message path like
// throughputBench: assembly and warm-up outside the timed region, one op
// advances virtual time by one proactive period. The run-global loops mirror
// the experiment driver: ten transaction arrivals per period, a rotating
// proposer each period, a commit scan every quarter period. Its allocs/op is
// the committed zero-allocation guarantee of the blockcast path — wire
// encoding, pull round trips, token-gated block responses, byte accounting,
// batching and the commit scan included.
func blockcastBench(kind sim.QueueKind, short bool) func(b *testing.B) {
	n, warmup := 1000, 50
	if short {
		n, warmup = 300, 50
	}
	return func(b *testing.B) {
		const delta = 172.8
		g, err := overlay.RandomKOut(n, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		env, err := simnet.NewEnv(simnet.EnvConfig{N: n, Seed: 1, TransferDelay: 1.728, Queue: kind})
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		net := &blockcastNet{}
		states := make([]*blockcast.State, n)
		host, err := hostrt.NewHost(env, hostrt.Config{
			Graph:    g,
			Strategy: func(int) core.Strategy { return core.MustRandomized(5, 10) },
			NewApp: func(i int) protocol.Application {
				states[i] = blockcast.NewState(protocol.NodeID(i), net)
				return states[i]
			},
			Delta: delta,
		})
		if err != nil {
			b.Fatal(err)
		}
		net.host = host
		chain, err := blockcast.NewChain(64, 2.0/3.0)
		if err != nil {
			b.Fatal(err)
		}
		head := func(i int) uint64 {
			h, _ := states[i].Head()
			return h
		}
		env.Every(delta/10, delta/10, func() bool {
			chain.Submit(1)
			return true
		})
		env.Every(delta/4, delta/4, func() bool {
			chain.CheckCommits(env.Now(), n, head, nil)
			return true
		})
		round := 0
		env.Every(delta, delta, func() bool {
			if !chain.TryPropose(env.Now(), states[round%n]) {
				chain.SkipProposal()
			}
			round++
			return true
		})
		horizon := float64(warmup) * delta
		if err := env.Run(horizon); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := env.Processed()
		for i := 0; i < b.N; i++ {
			horizon += delta
			if err := env.Run(horizon); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(env.Processed()-start)/float64(b.N), "events/op")
	}
}

// shardedThroughputBench measures the steady-state message path of the
// sharded engine on the zoned-WAN workload: a large zoned network
// (Figure 4/5 scale in full mode), the gossip-learning walker under the
// paper's randomized strategy, shard boundaries aligned with zone boundaries
// so the lookahead is the full inter-zone latency. One op advances virtual
// time by one proactive period; events/op counts every executed event across
// shards and coordinator. shards=1 runs the identical workload on the
// sequential engine, so the shards=N / shards=1 events/sec ratio is the
// single-run speedup. Assembly and warm-up happen outside the timed region.
// Short mode warms up long enough for the calendar queue to reach its
// high-water mark (allocs/op settles to 0); full mode keeps the warm-up
// short because at 10^6 nodes each proactive period costs seconds of wall
// clock, and the exact zero-allocation guarantee of the cross-shard path is
// pinned by the sim package's AllocsPerRun tests, not by this entry.
func shardedThroughputBench(shards int, short bool) func(b *testing.B) {
	n, warmup := 1_000_000, 10
	if short {
		n, warmup = 2000, 200
	}
	model := netmodel.Zones{K: 8, Intra: 0.5, Inter: 3}
	return func(b *testing.B) {
		const delta = 172.8
		g, err := overlay.RandomKOut(n, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		var env interface {
			hostrt.Env
			Processed() uint64
		}
		if shards <= 1 {
			env, err = simnet.NewEnv(simnet.EnvConfig{N: n, Seed: 1, TransferDelay: 1.728, Queue: sim.QueueCalendar})
		} else {
			var shardOf []int32
			var lookahead float64
			shardOf, lookahead, err = netmodel.PlanShards(model, 1.728, n, shards)
			if err != nil {
				b.Fatal(err)
			}
			env, err = simnet.NewShardedEnv(simnet.ShardedEnvConfig{
				N: n, Seed: 1, TransferDelay: 1.728, Queue: sim.QueueCalendar,
				Shards: shards, ShardOf: shardOf, Lookahead: lookahead,
			})
		}
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		_, err = hostrt.NewHost(env, hostrt.Config{
			Graph:    g,
			Strategy: func(int) core.Strategy { return core.MustRandomized(5, 10) },
			NewApp:   func(int) protocol.Application { return gossiplearning.NewWalker() },
			Delta:    delta,
			Network:  model,
		})
		if err != nil {
			b.Fatal(err)
		}
		horizon := float64(warmup) * delta
		if err := env.Run(horizon); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := env.Processed()
		for i := 0; i < b.N; i++ {
			horizon += delta
			if err := env.Run(horizon); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(env.Processed()-start)/float64(b.N), "events/op")
	}
}

// schedulerBench is the hold-model micro-benchmark: every executed event
// schedules one successor at a random future offset over a few thousand
// pending events. It is an independent harness from the repo's
// BenchmarkSchedulerQueues (different offset stream), so its numbers are
// only comparable to other benchreport runs — which is all the -check gate
// ever compares.
func schedulerBench(kind sim.QueueKind) func(b *testing.B) {
	return func(b *testing.B) {
		const pending = 4096
		e := sim.NewEngineWithQueue(kind)
		state := uint64(0x9e3779b97f4a7c15)
		next := func() float64 {
			// SplitMix64 step, mapped to [0, 100).
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return float64((z^(z>>31))>>11) / (1 << 53) * 100
		}
		var hold func()
		hold = func() { e.Schedule(next(), hold) }
		for i := 0; i < pending; i++ {
			e.Schedule(next(), hold)
		}
		// Warm the structure through a full turnover before timing.
		for i := 0; i < 4*pending; i++ {
			e.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
		b.ReportMetric(1, "events/op")
	}
}
