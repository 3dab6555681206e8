package experiment

import (
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/trace"
)

// parseScenario is ParseScenario for specs a test knows to be valid.
func parseScenario(t *testing.T, spec string) ScenarioDriver {
	t.Helper()
	sc, err := ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCrashBurstTraceShape checks the availability pattern of a crash
// burst: everyone online before the burst, exactly the configured fraction
// offline during the outage, everyone back afterwards.
func TestCrashBurstTraceShape(t *testing.T) {
	cfg := Config{App: PushGossip, Strategy: Simple(10), N: 200, Rounds: 100}.WithDefaults()
	sc := parseScenario(t, "crash-burst:0.25:40:20")
	if !sc.Churny() {
		t.Error("crash-burst must report churn")
	}
	tr, err := sc.BuildTrace(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != cfg.N {
		t.Fatalf("trace covers %d nodes, want %d", tr.N(), cfg.N)
	}
	count := func(tr *trace.Trace, rounds float64) int {
		online := 0
		for i := 0; i < cfg.N; i++ {
			if tr.Online(i, rounds*cfg.Delta) {
				online++
			}
		}
		return online
	}
	if got := count(tr, 10); got != cfg.N {
		t.Errorf("%d nodes online before the burst, want %d", got, cfg.N)
	}
	if got, want := count(tr, 50), cfg.N-50; got != want {
		t.Errorf("%d nodes online during the outage, want %d", got, want)
	}
	if got := count(tr, 70); got != cfg.N {
		t.Errorf("%d nodes online after the rejoin, want %d", got, cfg.N)
	}

	// An outage reaching past the end of the run leaves the crashed nodes
	// offline for good: no trailing empty interval, no rejoin transition at
	// the final instant.
	forever := parseScenario(t, "crash-burst:0.25:90:50")
	trF, err := forever.BuildTrace(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if len(trF.Segments[i].Intervals) > 1 && trF.Segments[i].Intervals[1].Start >= trF.Segments[i].Intervals[1].End {
			t.Fatalf("node %d has an empty rejoin interval: %+v", i, trF.Segments[i].Intervals)
		}
	}
	if got, want := count(trF, 95), cfg.N-50; got != want {
		t.Errorf("%d nodes online after a permanent crash, want %d", got, want)
	}

	// A crash round past the end of the run is an error, not an empty
	// outage.
	if _, err := parseScenario(t, "crash-burst:0.25:100").BuildTrace(cfg, 1); err == nil {
		t.Error("crash round at the end of the run accepted by BuildTrace")
	}

	// Different seeds must crash different subsets (the selection is
	// seed-derived, so repetitions decorrelate).
	tr2, err := sc.BuildTrace(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < cfg.N; i++ {
		if tr.Online(i, 50*cfg.Delta) != tr2.Online(i, 50*cfg.Delta) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds crashed the identical subset")
	}
}

// TestCrashBurstEndToEnd drives the crash burst through the generic
// experiment pipeline for the paper applications that support churn.
func TestCrashBurstEndToEnd(t *testing.T) {
	sc := parseScenario(t, "crash-burst")
	for _, app := range []AppDriver{PushGossip, GossipLearning} {
		res, err := Run(Config{
			App:      app,
			Strategy: Randomized(5, 10),
			Scenario: sc,
			N:        120,
			Rounds:   60,
			Seed:     1,
		})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if res.Metric.Len() == 0 {
			t.Fatalf("%s: no samples", app.Name())
		}
		if res.MessagesPerNodePerRound <= 0 || res.MessagesPerNodePerRound > 1.01 {
			t.Errorf("%s: budget %v outside (0, 1]", app.Name(), res.MessagesPerNodePerRound)
		}
		if !strings.Contains(res.Config.Label(), "crash-burst") {
			t.Errorf("label %q misses the scenario", res.Config.Label())
		}
	}

	// Chaotic iteration rejects churny scenarios, crash-burst included.
	if _, err := Run(Config{
		App:      ChaoticIteration,
		Strategy: Proactive(),
		Scenario: sc,
		N:        50,
		Rounds:   20,
	}); err == nil {
		t.Error("chaotic iteration accepted a churny scenario")
	}
}

// TestCrashBurstDeterminism: identical configs give identical results, as
// for the paper's scenarios.
func TestCrashBurstDeterminism(t *testing.T) {
	cfg := Config{
		App:      PushGossip,
		Strategy: Generalized(5, 10),
		Scenario: parseScenario(t, "crash-burst:0.5"),
		N:        100,
		Rounds:   40,
		Seed:     3,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MessagesSent != b.MessagesSent || a.FinalMetric != b.FinalMetric {
		t.Errorf("identical configs differ: (%v,%v) vs (%v,%v)",
			a.MessagesSent, a.FinalMetric, b.MessagesSent, b.FinalMetric)
	}
}

// TestCrashBurstRejectsNaNFraction: NaN fails every comparison, so a range
// check written as "f <= 0 || f > 1" let "crash-burst:NaN" through, and the
// burst's crasher count int(NaN·N) then sliced the permutation out of range.
func TestCrashBurstRejectsNaNFraction(t *testing.T) {
	for _, spec := range []string{"crash-burst:NaN", "burst:nan:3:2"} {
		if sc, err := ParseScenario(spec); err == nil {
			t.Errorf("ParseScenario(%q) = %v, want an error", spec, DriverLabel(sc))
		}
	}
}
