package experiment_test

import (
	goruntime "runtime"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// TestParseRuntime checks every spelling of the simulator runtime, one
// subtest per accepted or rejected spec, among them sim:slab, the one
// queue's name, and the removed queue kinds sim:calendar and sim:heap.
func TestParseRuntime(t *testing.T) {
	for _, spec := range []string{"sim", "simnet", "virtual", "sim:slab"} {
		t.Run(spec, func(t *testing.T) {
			d, err := experiment.ParseRuntime(spec)
			if err != nil {
				t.Fatalf("ParseRuntime(%q): %v", spec, err)
			}
			if d != experiment.SimRuntime {
				t.Errorf("ParseRuntime(%q) = %v, want SimRuntime", spec, d)
			}
		})
	}
	d, err := experiment.ParseRuntime("live")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "live" || experiment.DriverLabel(d) != "live" {
		t.Errorf("live runtime renders as %q/%q", d.Name(), experiment.DriverLabel(d))
	}
	d, err = experiment.ParseRuntime("live:0.001")
	if err != nil {
		t.Fatal(err)
	}
	if experiment.DriverLabel(d) != "live(x0.001)" {
		t.Errorf("parameterized live runtime renders as %q", experiment.DriverLabel(d))
	}
	for _, bad := range []string{"nope", "sim:1", "sim:calendar", "sim:heap", "sim:slab:slab", "live:0", "live:-2", "live:abc", "live:1:2", "live:Inf", "live:NaN"} {
		t.Run(bad, func(t *testing.T) {
			if _, err := experiment.ParseRuntime(bad); err == nil {
				t.Errorf("ParseRuntime(%q) accepted", bad)
			}
		})
	}
	if names := experiment.Runtimes(); len(names) != 2 || names[0] != "live" || names[1] != "sim" {
		t.Errorf("Runtimes() = %v, want [live sim]", names)
	}
}

// TestLiveRuntimeBuildsInProcessEnv checks that the live driver, parameterized
// or not, builds a *live.Env with the configured number of node slots that
// delivers in process: building it starts no goroutine.
func TestLiveRuntimeBuildsInProcessEnv(t *testing.T) {
	for _, spec := range []string{"live", "live:0.5"} {
		t.Run(spec, func(t *testing.T) {
			d, err := experiment.ParseRuntime(spec)
			if err != nil {
				t.Fatal(err)
			}
			goroutines := goruntime.NumGoroutine()
			env, err := d.NewEnv(experiment.Config{N: 4}, 1)
			started := goruntime.NumGoroutine() - goroutines
			if err != nil {
				t.Fatal(err)
			}
			le, ok := env.(*live.Env)
			if !ok {
				t.Fatalf("NewEnv returned %T, want *live.Env", env)
			}
			defer le.Close()
			if started > 0 {
				t.Errorf("NewEnv started %d goroutines, want 0", started)
			}
			if n := le.Availability().N(); n != 4 {
				t.Errorf("env has %d node slots, want 4", n)
			}
		})
	}
}

// TestSimRuntimeBuildsItsEnv checks which engine each simulator spec builds:
// sim and sim:shards=1 the sequential *simnet.Env, so one shard is the
// sequential engine itself, and sim:shards=2 on a zoned network the
// *simnet.ShardedEnv.
func TestSimRuntimeBuildsItsEnv(t *testing.T) {
	zones, err := experiment.ParseNetwork("zones:4:0.5:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec    string
		sharded bool
	}{
		{"sim", false},
		{"sim:shards=1", false},
		{"sim:shards=2", true},
	} {
		t.Run(c.spec, func(t *testing.T) {
			d, err := experiment.ParseRuntime(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			env, err := d.NewEnv(experiment.Config{N: 8, Network: zones}, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			switch env.(type) {
			case *simnet.Env:
				if c.sharded {
					t.Errorf("NewEnv returned %T, want *simnet.ShardedEnv", env)
				}
			case *simnet.ShardedEnv:
				if !c.sharded {
					t.Errorf("NewEnv returned %T, want *simnet.Env", env)
				}
			default:
				t.Errorf("NewEnv returned %T, want a simnet environment", env)
			}
		})
	}
}

func TestLabelAppendsNonDefaultRuntime(t *testing.T) {
	cfg := experiment.Config{
		App:      experiment.GossipLearning,
		Strategy: experiment.Randomized(5, 10),
		N:        100,
	}.WithDefaults()
	if got := cfg.Label(); strings.Contains(got, "live") || strings.Contains(got, "/sim") {
		t.Errorf("sim label changed: %q", got)
	}
	cfg.Runtime = experiment.LiveRuntime
	if got := cfg.Label(); !strings.HasSuffix(got, "/live") {
		t.Errorf("live label = %q, want .../live suffix", got)
	}
}

// TestLiveRuntimeEndToEnd runs the acceptance-criteria configuration — a
// real strategy spec with the crash-burst scenario — through the wall-clock
// runtime and checks that the run completes in real time with sampled
// metrics and live traffic, exercising churn (and the push gossip rejoin
// pull) on wall timers.
func TestLiveRuntimeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	rt, err := experiment.ParseRuntime("live:0.0002") // Δ = 172.8 s lasts ≈ 35 ms
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := experiment.ParseScenario("crash-burst:0.3:4:2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.Config{
		App:      experiment.PushGossip,
		Strategy: experiment.Randomized(5, 10),
		Scenario: scenario,
		Runtime:  rt,
		N:        30,
		Rounds:   10,
		Seed:     3,
	}
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Len() != 10 {
		t.Errorf("metric has %d samples, want 10", res.Metric.Len())
	}
	if res.MessagesSent == 0 {
		t.Error("live run sent no messages")
	}
	// The grid accumulates Δ by repeated addition (exactly as the simulated
	// engine does), so compare with a ULP-scale tolerance.
	ts, _ := res.Metric.Last()
	if diff := ts - 10*res.Config.Delta; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("last sample at %v, want ≈ %v (nominal grid)", ts, 10*res.Config.Delta)
	}
}

// TestLiveRuntimeMatchesSimShape runs the same config on both runtimes and
// checks the runtime-neutrality contract that can be checked exactly:
// identical sampling grids and the same order of magnitude of traffic.
// (Exact counts differ: wall-clock timers interleave sends differently than
// virtual time.)
func TestLiveRuntimeMatchesSimShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	cfg := experiment.Config{
		App:      experiment.GossipLearning,
		Strategy: experiment.Randomized(5, 10),
		N:        30,
		Rounds:   8,
		Seed:     5,
	}
	simRes, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveCfg := cfg
	liveCfg.Runtime = experiment.LiveRuntime
	liveRes, err := experiment.Run(liveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Metric.Len() != liveRes.Metric.Len() {
		t.Fatalf("sample counts differ: sim %d vs live %d", simRes.Metric.Len(), liveRes.Metric.Len())
	}
	for i, ts := range simRes.Metric.Times {
		if liveRes.Metric.Times[i] != ts {
			t.Fatalf("sample %d at %v (live) vs %v (sim): grids must match", i, liveRes.Metric.Times[i], ts)
		}
	}
	if liveRes.MessagesSent == 0 {
		t.Error("live run sent no messages")
	}
	if liveRes.MessagesSent > 4*simRes.MessagesSent+100 {
		t.Errorf("live sent %v messages vs sim %v: rate limiting should bound both",
			liveRes.MessagesSent, simRes.MessagesSent)
	}
}
