package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/workload"
)

// workloadTestConfig is a small, fast push-gossip experiment used by the
// workload-dimension suite. Push gossip is the arrival-driven application, so
// every workload is legal on it.
func workloadTestConfig() Config {
	return Config{
		App:      PushGossip,
		Strategy: Generalized(5, 10),
		N:        60,
		Rounds:   20,
		Seed:     7,
	}
}

func runWorkload(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParseWorkload exercises the registry round trip for every built-in
// arrival-process family plus the error paths.
func TestParseWorkload(t *testing.T) {
	valid := map[string]string{
		"interval":                                 "interval",
		"drip":                                     "interval",
		"interval:30":                              "interval:30",
		"poisson:0.5":                              "poisson:0.5",
		"pareto-onoff:2:30:90:1.5":                 "pareto-onoff:2:30:90:1.5",
		"onoff:2:30:90:1.5":                        "pareto-onoff:2:30:90:1.5",
		"selfsimilar:1:60:120:1.2":                 "pareto-onoff:1:60:120:1.2",
		"diurnal:3600:0.8:poisson:0.5":             "diurnal:3600:0.8:poisson:0.5",
		"flashcrowd:600:10:120:poisson:1":          "flashcrowd:600:10:120:poisson:1",
		"flash:600:10:120:interval:30":             "flashcrowd:600:10:120:interval:30",
		"diurnal:86400:1:pareto-onoff:2:30:90:1.5": "diurnal:86400:1:pareto-onoff:2:30:90:1.5",
	}
	for spec, label := range valid {
		d, err := ParseWorkload(spec)
		if err != nil {
			t.Errorf("ParseWorkload(%q) failed: %v", spec, err)
			continue
		}
		if got := DriverLabel(d); got != label {
			t.Errorf("ParseWorkload(%q) label = %q, want %q", spec, got, label)
		}
	}
	invalid := []string{
		"", "bogus", "poisson", "poisson:0", "poisson:x", "poisson:1:2",
		"interval:0", "interval:-5", "pareto-onoff:2:30", "pareto-onoff:2:30:90:1",
		"diurnal:3600:2:poisson:1", "diurnal:0:0.5:poisson:1", "diurnal:3600:0.5:bogus:1",
		"flashcrowd:600:10:0:poisson:1", "replay", "replay:/nonexistent/stream.csv",
	}
	for _, spec := range invalid {
		if _, err := ParseWorkload(spec); err == nil {
			t.Errorf("ParseWorkload(%q) succeeded, want error", spec)
		}
	}
	names := Workloads()
	for _, want := range []string{"interval", "poisson", "pareto-onoff", "diurnal", "flashcrowd", "replay"} {
		if !contains(names, want) {
			t.Errorf("Workloads() = %v, missing %q", names, want)
		}
	}
}

// TestDefaultWorkloadByteIdentical pins the acceptance criterion: an
// unspecified (zero) workload and the parsed bare "interval" spec must both
// reproduce the identical run — the paper's fixed injection drip — and
// their labels must not mention the workload dimension.
func TestDefaultWorkloadByteIdentical(t *testing.T) {
	base := runWorkload(t, workloadTestConfig())

	viaParse := workloadTestConfig()
	wl, err := ParseWorkload("interval")
	if err != nil {
		t.Fatal(err)
	}
	if !wl.IsDefault() {
		t.Fatalf("ParseWorkload(\"interval\") = %v, want the default workload", wl)
	}
	viaParse.Workload = wl
	parsed := runWorkload(t, viaParse)

	if base.MessagesSent != parsed.MessagesSent || !seriesEqual(base.Metric, parsed.Metric) {
		t.Error("parsed \"interval\" workload diverged from the default run")
	}
	if got := base.Config.Label(); strings.Contains(got, "wl=") {
		t.Errorf("default label mentions the workload: %q", got)
	}
	if base.Config.Label() != parsed.Config.Label() {
		t.Errorf("default label changed: %q vs %q", base.Config.Label(), parsed.Config.Label())
	}
}

// TestIntervalSpecMatchesDefaultPath requires the explicit
// "interval:DefaultInjectionInterval" spec to reproduce the default workload's run
// exactly: both arrival chains fire at bit-identical times, the times the
// applications' former Every injection loop used (the goldens pin those).
func TestIntervalSpecMatchesDefaultPath(t *testing.T) {
	base := runWorkload(t, workloadTestConfig())

	cfg := workloadTestConfig().WithDefaults()
	wl, err := ParseWorkload("interval:17.28")
	if err != nil {
		t.Fatal(err)
	}
	if DefaultInjectionInterval != 17.28 {
		t.Fatalf("default injection interval changed to %v; update the spec above", DefaultInjectionInterval)
	}
	cfg.Workload = wl
	explicit := runWorkload(t, cfg)

	if base.MessagesSent != explicit.MessagesSent || !seriesEqual(base.Metric, explicit.Metric) {
		t.Error("interval:17.28 through the generic arrival path diverged from the default injection loop")
	}
	if got := explicit.Config.Label(); !strings.Contains(got, "/wl=interval:17.28") {
		t.Errorf("explicit workload missing from label %q", got)
	}
}

// TestWorkloadChangesResultsDeterministically: a non-default arrival process
// must actually change the traffic, and identical configs must stay
// bit-identical while different seeds diverge.
func TestWorkloadChangesResultsDeterministically(t *testing.T) {
	base := runWorkload(t, workloadTestConfig())

	cfg := workloadTestConfig()
	wl, err := ParseWorkload("poisson:0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = wl
	a := runWorkload(t, cfg)
	b := runWorkload(t, cfg)
	if a.MessagesSent != b.MessagesSent || !seriesEqual(a.Metric, b.Metric) {
		t.Error("identical poisson configs produced different results")
	}
	if seriesEqual(a.Metric, base.Metric) {
		t.Error("poisson workload did not change the metric")
	}
	if !strings.Contains(a.Config.Label(), "/wl=poisson:0.5") {
		t.Errorf("workload missing from label %q", a.Config.Label())
	}

	cfg.Seed = 99
	c := runWorkload(t, cfg)
	if seriesEqual(a.Metric, c.Metric) {
		t.Error("different seeds produced identical poisson runs")
	}
}

// TestWorkloadValidation rejects non-default workloads on applications that
// ignore arrivals: the workload would silently not happen.
func TestWorkloadValidation(t *testing.T) {
	wl, err := ParseWorkload("poisson:0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{App: GossipLearning, Strategy: Randomized(5, 10), N: 60, Rounds: 20, Workload: wl}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "does not consume arrival workloads") {
		t.Errorf("gossip-learning with a poisson workload: err = %v, want arrival-consumer rejection", err)
	}
	// The default workload stays legal on every application.
	cfg.Workload = Workload{}
	if _, err := Run(cfg); err != nil {
		t.Errorf("gossip-learning with the default workload failed: %v", err)
	}
}

// TestReplayWorkloadMatchesLive pins the record→replay contract end to end:
// recording the poisson workload's arrival stream with the repetition's
// derived seed and replaying it from disk must reproduce the live-sampled
// run bit-for-bit (only the label differs).
func TestReplayWorkloadMatchesLive(t *testing.T) {
	cfg := workloadTestConfig()
	cfg.Repetitions = 1 // one repetition: the stream realizes seed cfg.Seed+0
	wl, err := ParseWorkload("poisson:0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = wl
	live := runWorkload(t, cfg)

	// Record the same realization standalone: same spec, same derived seed.
	spec, err := workload.ParseSpec("poisson:0.5")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.Record(spec, workload.ArrivalSeed(cfg.Seed), live.Config.Duration())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arrivals.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	replayCfg := workloadTestConfig()
	replayCfg.Repetitions = 1
	replayWl, err := ParseWorkload("replay:" + path)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg.Workload = replayWl
	replayed := runWorkload(t, replayCfg)

	if live.MessagesSent != replayed.MessagesSent || !seriesEqual(live.Metric, replayed.Metric) {
		t.Error("replayed stream diverged from the live-sampled workload")
	}
	if live.InjectionsSkipped != replayed.InjectionsSkipped {
		t.Errorf("skipped-injection counts diverged: %v vs %v", live.InjectionsSkipped, replayed.InjectionsSkipped)
	}
}

// TestOutageScenario runs the correlated-outage availability generator
// through the generic churn pipeline and checks that full-network outages
// surface in the skipped-injection counter instead of vanishing.
func TestOutageScenario(t *testing.T) {
	scenario, err := ParseScenario("outage:1:0.5:600")
	if err != nil {
		t.Fatal(err)
	}
	if !scenario.Churny() {
		t.Error("outage scenario must report churny")
	}
	if got := DriverLabel(scenario); got != "outage:1:0.5:600" {
		t.Errorf("outage label = %q", got)
	}
	cfg := workloadTestConfig()
	cfg.Rounds = 40
	cfg.Scenario = scenario
	res := runWorkload(t, cfg)
	// One zone, down half the windows: whole-network outages are guaranteed,
	// so injections must have been skipped (and counted).
	if res.InjectionsSkipped <= 0 {
		t.Errorf("InjectionsSkipped = %v, want > 0 under a one-zone outage scenario", res.InjectionsSkipped)
	}
	if res.MessagesSent <= 0 {
		t.Error("no traffic at all under the outage scenario")
	}

	// Bare "outage" parses to the default parameterization.
	d, err := ParseScenario("outage")
	if err != nil {
		t.Fatal(err)
	}
	if got := DriverLabel(d); got != "outage:4:0.1:900" {
		t.Errorf("default outage label = %q", got)
	}
	// Wrong arity still fails.
	if _, err := ParseScenario("outage:3"); err == nil {
		t.Error("ParseScenario(\"outage:3\") succeeded, want error")
	}
}
