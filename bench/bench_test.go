package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/metrics"
)

// Reduced copies of the workloads: the same layers, a few hundred
// milliseconds in total.
var (
	smallFig2  = simSpec{app: "push-gossip", strategy: "randomized:5:10", scenario: "failure-free", network: "constant", workload: "interval", runtime: "sim", n: 300, rounds: 40}
	smallChurn = simSpec{app: "push-gossip", strategy: "generalized:5:10", scenario: "smartphone-trace", network: "lossy:0.01:lognormal:0.547:0.5", workload: "poisson:0.0579", runtime: "sim:slab", n: 300, rounds: 40}
	smallScale = simSpec{app: "push-gossip", strategy: "randomized:5:10", scenario: "failure-free", network: "zones:8:0.5:3", workload: "interval", runtime: "sim:shards=2", n: 2000, rounds: 80}
	smallLive  = liveSpec{nodes: 4, tokens: 8}
)

func sameSeries(a, b *metrics.Series) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Times) != len(b.Times) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) ||
			math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// sameResult compares everything a Result carries except the echoed Config,
// whose drivers are the decorators themselves.
func sameResult(a, b *experiment.Result) bool {
	if len(a.Summary) != len(b.Summary) {
		return false
	}
	for i := range a.Summary {
		if math.Float64bits(a.Summary[i]) != math.Float64bits(b.Summary[i]) {
			return false
		}
	}
	return sameSeries(a.Metric, b.Metric) && sameSeries(a.Tokens, b.Tokens) &&
		a.MessagesSent == b.MessagesSent && a.BytesSent == b.BytesSent &&
		a.EventsProcessed == b.EventsProcessed && a.InjectionsSkipped == b.InjectionsSkipped &&
		math.Float64bits(a.FinalMetric) == math.Float64bits(b.FinalMetric) &&
		math.Float64bits(a.SteadyStateMetric) == math.Float64bits(b.SteadyStateMetric)
}

// TestDecoratorsPreserveResults runs one seed three ways — undecorated, under
// the untraced probe and under the wrapping traced probe — and requires
// bit-identical Results. It covers every optional capability the decorators
// forward: model-sampled delays (DelayedSender), typed tick and churn hooks
// (HookScheduler), slab generators (StreamSeeder), the event count
// (Processed), arrival workloads, rejoin pulls, metric smoothing, parameterized
// drivers, summaries and config validation.
func TestDecoratorsPreserveResults(t *testing.T) {
	specs := map[string]simSpec{
		"fig2":      smallFig2,
		"churn":     smallChurn,
		"zones":     {app: "push-gossip", strategy: "randomized:5:10", scenario: "failure-free", network: "zones:8:0.5:3", workload: "interval", runtime: "sim", n: 300, rounds: 20},
		"learning":  {app: "gossip-learning", strategy: "simple:10", scenario: "smartphone-trace", network: "constant", workload: "interval", runtime: "sim", n: 200, rounds: 30},
		"iteration": {app: "chaotic-iteration", strategy: "generalized:5:10", scenario: "failure-free", network: "constant", workload: "interval", runtime: "sim", n: 100, rounds: 30},
		"blockcast": {app: "blockcast:16", strategy: "randomized:5:10", scenario: "smartphone-trace", network: "exponential:1.728", workload: "poisson:0.5", runtime: "sim", n: 200, rounds: 30},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			cfg, err := spec.config(7)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := experiment.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.EventsProcessed == 0 || plain.MessagesSent == 0 {
				t.Fatalf("reference run did no work: %+v", plain)
			}
			untraced, err := runRep(spec, 7, repOptions{memstats: true, segments: true})
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(plain, untraced.res) {
				t.Errorf("untraced probe changed the result: %v events %v messages vs %v events %v messages",
					untraced.res.EventsProcessed, untraced.res.MessagesSent, plain.EventsProcessed, plain.MessagesSent)
			}
			log := &spanLog{}
			traced, err := runRep(spec, 7, repOptions{log: log})
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(plain, traced.res) {
				t.Errorf("traced probe changed the result: %v events %v messages vs %v events %v messages",
					traced.res.EventsProcessed, traced.res.MessagesSent, plain.EventsProcessed, plain.MessagesSent)
			}
			tr := traced.probe.trace
			if sends := tr.stats[layerSend].calls; float64(sends) > plain.MessagesSent || sends == 0 {
				t.Errorf("traced environment saw %d sends, host counted %v", sends, plain.MessagesSent)
			}
			if tr.stats[layerHook].calls == 0 || tr.stats[layerUpdate].calls == 0 || tr.stats[layerDeliver].timed == 0 {
				t.Errorf("traced wrappers were bypassed: %+v", tr.stats)
			}
			if untraced.runNs <= 0 || untraced.setupNs() <= 0 || untraced.runCPUNs < 0 {
				t.Errorf("bad run window: run %d ns, set-up %d ns, cpu %d ns", untraced.runNs, untraced.setupNs(), untraced.runCPUNs)
			}
			wall, cpu := untraced.segments()
			var wallSum, cpuSum int64
			for i := range wall {
				wallSum, cpuSum = wallSum+wall[i], cpuSum+cpu[i]
			}
			if len(wall) < segmentsPerRep/2 || wallSum != untraced.runNs || cpuSum != untraced.runCPUNs {
				t.Errorf("%d segments cover %d ns wall and %d ns CPU of a run of %d and %d", len(wall), wallSum, cpuSum, untraced.runNs, untraced.runCPUNs)
			}
		})
	}
}

// TestTracedPassRejectsShardedEnv: the wrapping decorators time callbacks on
// one goroutine; a sharded environment must be refused, not silently run
// unsharded.
func TestTracedPassRejectsShardedEnv(t *testing.T) {
	if _, err := runRep(smallScale, 1, repOptions{log: &spanLog{}}); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("traced rep on a sharded runtime: err = %v, want a refusal", err)
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for one seed.
var exactCounts = []string{
	"sim.events", "simnet.sends", "runtime.deliveries", "runtime.hooks", "runtime.msgs_dropped",
	"workload.injections_skipped", "protocol.useful_ratio", "protocol.reactive_share", "core.audit_violations",
}

func TestSimTracedPassCountsAreExact(t *testing.T) {
	for _, w := range []workloadDef{
		{name: "fig2", sim: &smallFig2},
		{name: "churn", sim: &smallChurn},
		{name: "scale", sim: &smallScale, sequentialRuntime: "sim:shards=1", costBase: &smallFig2},
	} {
		t.Run(w.name, func(t *testing.T) {
			log := &spanLog{}
			a, err := runSimTraced(w, 11, log)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runSimTraced(w, 11, &spanLog{})
			if err != nil {
				t.Fatal(err)
			}
			other, err := runSimTraced(w, 12, &spanLog{})
			if err != nil {
				t.Fatal(err)
			}
			if !a.correct || a.failed != 0 {
				t.Errorf("traced pass reports failures: %+v", a)
			}
			differs := false
			for _, name := range exactCounts {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a.metrics[name], b.metrics[name])
				}
				differs = differs || a.metrics[name] != other.metrics[name]
			}
			if !differs {
				t.Error("another seed produced the same counts: the seed does not reach the workload")
			}
			if _, err := resultLine(a, perLayer, false); err != nil {
				t.Error(err)
			}
			for _, name := range []string{"simnet.run_ms", "trace.overhead_ratio", "overlay.build_ms", "runtime.newhost_ms", "go.heap_peak_mb"} {
				if a.metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, a.metrics[name])
				}
			}
			if w.sequentialRuntime != "" {
				for _, name := range []string{"sim.sharded.speedup", "sim.sharded.cpu_per_wall", "sim.scale_cost_ratio"} {
					if a.metrics[name] <= 0 {
						t.Errorf("%s = %v, want > 0", name, a.metrics[name])
					}
				}
			}
			if w.name == "churn" && (a.metrics["netmodel.sample_ns"] <= 0 || a.metrics["workload.next_ns"] <= 0 || a.metrics["trace.build_ms"] <= 0) {
				t.Errorf("churn workload did not exercise netmodel, workload and trace: %v", a.metrics)
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := log.write(path); err != nil {
				t.Fatal(err)
			}
			assertSpanFile(t, path, "rep", "simnet.run", "runtime.deliver", "runtime.hook", "apps.update", "simnet.send", "overlay.build")
		})
	}
}

// assertSpanFile checks that the file is trace-event JSON holding the named
// spans, and that every child lies inside its parent.
func assertSpanFile(t *testing.T, path string, names ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int32
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	type interval struct{ start, end float64 }
	byID := map[int32]interval{}
	seen := map[string]bool{}
	for _, e := range file.TraceEvents {
		byID[e.Args.ID] = interval{e.Ts, e.Ts + e.Dur}
		seen[e.Name] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("span file has no %q span", name)
		}
	}
	const slack = 0.002 // µs: timestamps are printed to the nanosecond
	for _, e := range file.TraceEvents {
		if e.Args.Parent == 0 {
			continue
		}
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Fatalf("span %q names parent %d, which is not in the file", e.Name, e.Args.Parent)
		}
		if e.Ts < p.start-slack || e.Ts+e.Dur > p.end+slack {
			t.Fatalf("span %q [%v, %v] lies outside its parent [%v, %v]", e.Name, e.Ts, e.Ts+e.Dur, p.start, p.end)
		}
	}
}

func TestSimEndToEndReportsEveryMetric(t *testing.T) {
	for name, w := range map[string]workloadDef{
		"fig2":  {sim: &smallFig2},
		"churn": {sim: &smallChurn},
		"scale": {sim: &smallScale},
	} {
		t.Run(name, func(t *testing.T) {
			r, err := runSimEndToEnd(w, 5, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 || r.attempted < minRepsPerRun {
				t.Errorf("attempted %d failed %d correct %t", r.attempted, r.failed, r.correct)
			}
			assertEndToEndLine(t, r)
		})
	}
}

// assertEndToEndLine checks the result line: exactly the end-to-end metrics,
// each with its unit and a value above zero.
func assertEndToEndLine(t *testing.T, r result) {
	t.Helper()
	line, err := resultLine(r, endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	var decoded resultJSON
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Metrics) != len(endToEnd) {
		t.Errorf("result line has %d metrics, want %d", len(decoded.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := decoded.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("%s = %+v (present %t), want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestRelayLosesNoToken runs both relay shapes on a small mesh, untraced and
// traced: every token must come back, every link must establish, and the
// stack's own loss counters must stay at zero.
func TestRelayLosesNoToken(t *testing.T) {
	for name, w := range map[string]workloadDef{
		"pingpong": {live: &liveSpec{nodes: 4, tokens: 1}},
		"flood":    {live: &smallLive},
	} {
		t.Run(name, func(t *testing.T) {
			spec := *w.live
			r, err := runLiveEndToEnd(w, 9, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 {
				t.Errorf("untraced relay: attempted %d failed %d correct %t", r.attempted, r.failed, r.correct)
			}
			if r.attempted < int64(spec.links()+spec.tokens)+100 {
				t.Errorf("relay made only %d sends in 0.3 s", r.attempted)
			}
			assertEndToEndLine(t, r)

			log := &spanLog{}
			tr, err := runLiveTraced(spec, 9, 0.6, log)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.correct || tr.failed != 0 {
				t.Errorf("traced relay: attempted %d failed %d correct %t", tr.attempted, tr.failed, tr.correct)
			}
			if _, err := resultLine(tr, perLayer, false); err != nil {
				t.Error(err)
			}
			m := tr.metrics
			if got, want := m["transport.dials"], float64(spec.links()); got != want {
				t.Errorf("transport.dials = %v, want one per directed link = %v", got, want)
			}
			for _, name := range []string{"transport.sends_shed", "transport.send_errors", "transport.reconnects", "live.dropped_deliveries"} {
				if m[name] != 0 {
					t.Errorf("%s = %v, want 0", name, m[name])
				}
			}
			for _, name := range []string{"live.hop_us_p50", "transport.link_us_p50", "transport.send_call_ns", "transport.frames_sent", "transport.bytes_per_frame", "live.newenv_ms", "transport.first_contact_ms"} {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name])
				}
			}
			// The stages are cut from one hop by stamps riding in the frame,
			// so link + inbox is the hop, sample by sample.
			if sum := m["transport.link_us_p50"] + m["live.inbox_us_p50"]; spec.tokens == 1 && math.Abs(sum-m["live.hop_us_p50"]) > 0.25*m["live.hop_us_p50"] {
				t.Errorf("link p50 %v + inbox p50 %v is far from hop p50 %v", m["transport.link_us_p50"], m["live.inbox_us_p50"], m["live.hop_us_p50"])
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := log.write(path); err != nil {
				t.Fatal(err)
			}
			assertSpanFile(t, path, "hop", "transport.link", "live.inbox")
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps the committed BENCHMARK.json equal to
// the tables in metrics.go and workloads.go.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark was sized for %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if (w.sim == nil) == (w.live == nil) {
			t.Errorf("workload %s must be exactly one of sim and live", w.name)
		}
	}
	seen := map[string]bool{}
	for _, list := range []struct {
		name       string
		file, code []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(list.file) != len(list.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go has %d", list.name, len(list.file), len(list.code))
		}
		for i, d := range list.code {
			if list.file[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go has %+v", list.name, i, list.file[i], d)
			}
			if seen[d.Name] {
				t.Errorf("metric %s is listed twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
		}
	}
}
