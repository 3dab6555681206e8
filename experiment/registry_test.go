package experiment

import (
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/trace"
)

// TestApplicationNameRoundTrips: every application parses back to itself
// from its canonical name.
func TestApplicationNameRoundTrips(t *testing.T) {
	names := Applications()
	if len(names) < 3 {
		t.Fatalf("Applications() = %v, want at least the three paper apps", names)
	}
	for _, name := range names {
		d, err := ParseApplication(name)
		if err != nil {
			t.Fatalf("ParseApplication(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("ParseApplication(%q).Name() = %q", name, d.Name())
		}
		if d.MetricLabel() == "" {
			t.Errorf("%s: empty metric label", name)
		}
	}
	// Aliases resolve to the same drivers as the canonical names.
	aliases := map[string]AppDriver{
		"gl": GossipLearning, "learning": GossipLearning,
		"pg": PushGossip, "broadcast": PushGossip,
		"ci": ChaoticIteration, "poweriter": ChaoticIteration,
	}
	for alias, want := range aliases {
		if got, err := ParseApplication(alias); err != nil || got != want {
			t.Errorf("ParseApplication(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
}

// TestScenarioNameRoundTrips: every scenario parses from its canonical name
// and reports it back.
func TestScenarioNameRoundTrips(t *testing.T) {
	names := Scenarios()
	if len(names) < 2 {
		t.Fatalf("Scenarios() = %v, want at least the two paper scenarios", names)
	}
	for _, name := range names {
		d, err := ParseScenario(name)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("ParseScenario(%q).Name() = %q", name, d.Name())
		}
	}
	aliases := map[string]ScenarioDriver{
		"ff": FailureFree, "trace": SmartphoneTrace, "churn": SmartphoneTrace,
	}
	for alias, want := range aliases {
		if got, err := ParseScenario(alias); err != nil || got != want {
			t.Errorf("ParseScenario(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	// The built-in scenarios take no parameters.
	for _, bad := range []string{"failure-free:1", "smartphone-trace:x"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted trailing parameters", bad)
		}
	}
}

// TestStrategySpecRoundTrips: for every family, specs render
// through String() into exactly the colon form ParseStrategySpec accepts.
func TestStrategySpecRoundTrips(t *testing.T) {
	specs := []StrategySpec{
		Proactive(),
		Simple(7),
		Generalized(5, 10),
		Randomized(10, 20),
		{Kind: KindReactive, A: 3},
	}
	for _, kind := range StrategyKinds() {
		specs = append(specs, ParameterGrid(StrategyKind(kind))...)
	}
	for _, spec := range specs {
		got, err := ParseStrategySpec(spec.String())
		if err != nil {
			t.Fatalf("ParseStrategySpec(%q): %v", spec.String(), err)
		}
		if got != spec {
			t.Errorf("ParseStrategySpec(%q) = %v, want %v", spec.String(), got, spec)
		}
	}
	if len(StrategyKinds()) < 5 {
		t.Errorf("StrategyKinds() = %v, want at least the five paper kinds", StrategyKinds())
	}
}

// TestParseStrategySpecRejectsTrailingParameters: unconsumed parts are an
// error, not silently ignored ("simple:5:9" must not parse as simple(C=5)).
func TestParseStrategySpecRejectsTrailingParameters(t *testing.T) {
	bad := []string{
		"simple:5:9",
		"proactive:1",
		"reactive:2:3",
		"generalized:1:2:3",
		"randomized:5:10:15",
	}
	for _, in := range bad {
		_, err := ParseStrategySpec(in)
		if err == nil {
			t.Errorf("ParseStrategySpec(%q) accepted trailing parameters", in)
			continue
		}
		if !strings.Contains(err.Error(), in) {
			t.Errorf("error for %q does not mention the spec: %v", in, err)
		}
	}
}

// TestRegistryErrors: unknown names fail cleanly in every dimension.
func TestRegistryErrors(t *testing.T) {
	if _, err := ParseApplication("no-such-app"); err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Errorf("unknown application error = %v", err)
	}
	if _, err := ParseScenario("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario error = %v", err)
	}
	if _, err := ParseStrategySpec("no-such-kind:1"); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("unknown strategy error = %v", err)
	}

	if _, err := ParseNetwork("no-such-network"); err == nil || !strings.Contains(err.Error(), "unknown network") {
		t.Errorf("unknown network error = %v", err)
	}
}

// TestRegisteredExtensionRunsThroughGenericPipeline runs a caller's own
// application and scenario drivers end to end: neither has a name
// ParseApplication or ParseScenario knows, so they go into Config directly,
// as a program outside this package would set them.
func TestRegisteredExtensionRunsThroughGenericPipeline(t *testing.T) {
	blackout := scenarioFunc{
		name: "test-blackout",
		build: func(cfg Config, seed uint64) (*trace.Trace, error) {
			// Odd nodes offline for the middle third of the run.
			duration := cfg.Duration()
			segments := make([]trace.Segment, cfg.N)
			for i := range segments {
				if i%2 == 1 {
					segments[i] = trace.Segment{Intervals: []trace.Interval{
						{Start: 0, End: duration / 3},
						{Start: 2 * duration / 3, End: duration},
					}}
				} else {
					segments[i] = trace.Segment{Intervals: []trace.Interval{{Start: 0, End: duration}}}
				}
			}
			return &trace.Trace{Duration: duration, Segments: segments}, nil
		},
	}
	res, err := Run(Config{
		App:      ownApp{AppDriver: PushGossip},
		Strategy: Randomized(5, 10),
		Scenario: blackout,
		N:        80,
		Rounds:   30,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Len() == 0 {
		t.Fatal("no samples from the caller's drivers")
	}
	if got := res.Config.Label(); got != "test-app/randomized(A=5,C=10)/test-blackout/N=80" {
		t.Errorf("label %q does not name the caller's drivers", got)
	}
}

// ownApp is an application driver outside the fixed set: push gossip's
// overlay and runs under another name, without its driver capabilities.
type ownApp struct{ AppDriver }

func (ownApp) Name() string { return "test-app" }

type scenarioFunc struct {
	name  string
	build func(cfg Config, seed uint64) (*trace.Trace, error)
}

func (s scenarioFunc) Name() string { return s.name }
func (s scenarioFunc) Churny() bool { return true }
func (s scenarioFunc) BuildTrace(cfg Config, seed uint64) (*trace.Trace, error) {
	return s.build(cfg, seed)
}
