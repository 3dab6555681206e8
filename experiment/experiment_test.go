package experiment

import (
	"math"
	"testing"
)

// quickConfig returns a small, fast experiment configuration for tests.
func quickConfig(app AppDriver, spec StrategySpec) Config {
	return Config{
		App:         app,
		Strategy:    spec,
		N:           120,
		Rounds:      60,
		Scenario:    FailureFree,
		Seed:        1,
		Repetitions: 1,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{App: nil, Strategy: Proactive(), N: 10},
		{App: GossipLearning, Strategy: Proactive(), N: 1},
		{App: GossipLearning, Strategy: StrategySpec{Kind: "nope"}, N: 10},
		{App: ChaoticIteration, Strategy: Proactive(), N: 10, Scenario: SmartphoneTrace},
		{App: GossipLearning, Strategy: Generalized(5, 2), N: 10},
		{App: GossipLearning, Strategy: Proactive(), N: 10, Delta: -1},
		{App: GossipLearning, Strategy: Proactive(), N: 10, TransferDelay: -0.5},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestConfigRejectsNonFiniteTimes checks every time-span field against NaN
// and ±Inf: NaN fails every comparison, so a plain "≤ 0" check let it
// through. It calls validate directly so a regression cannot start a run.
func TestConfigRejectsNonFiniteTimes(t *testing.T) {
	fields := map[string]func(c *Config, v float64){
		"Delta":         func(c *Config, v float64) { c.Delta = v },
		"TransferDelay": func(c *Config, v float64) { c.TransferDelay = v },
	}
	base := quickConfig(PushGossip, Proactive()).WithDefaults()
	if err := base.validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := base
			set(&cfg, v)
			if err := cfg.validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{App: PushGossip, Strategy: Proactive(), N: 100}.WithDefaults()
	if cfg.Delta != DefaultDelta || cfg.TransferDelay != DefaultTransferDelay {
		t.Error("timing defaults not applied")
	}
	if cfg.Rounds != DefaultRounds || cfg.Repetitions != 1 {
		t.Error("rounds/repetition defaults not applied")
	}
	if cfg.Scenario != FailureFree {
		t.Error("scenario default not applied")
	}
	if cfg.OverlayK != DefaultOverlayK {
		t.Error("overlay default not applied")
	}
	if cfg.Duration() != DefaultDelta*DefaultRounds {
		t.Errorf("Duration = %v", cfg.Duration())
	}
	if cfg.Label() == "" {
		t.Error("Label empty")
	}
}

func TestApplicationAndScenarioParsing(t *testing.T) {
	for _, app := range []AppDriver{GossipLearning, PushGossip, ChaoticIteration} {
		got, err := ParseApplication(app.Name())
		if err != nil || got != app {
			t.Errorf("ParseApplication(%q) = %v, %v", app.Name(), got, err)
		}
	}
	if _, err := ParseApplication("bogus"); err == nil {
		t.Error("bogus application accepted")
	}
	for _, sc := range []ScenarioDriver{FailureFree, SmartphoneTrace} {
		got, err := ParseScenario(sc.Name())
		if err != nil || got != sc {
			t.Errorf("ParseScenario(%q) = %v, %v", sc.Name(), got, err)
		}
	}
	if _, err := ParseScenario("bogus"); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestGossipLearningSpeedupOverProactive(t *testing.T) {
	// The headline qualitative result of Figure 2 (top row): token account
	// strategies make the models walk much faster than the proactive
	// baseline while staying within the same message budget.
	proactive, err := Run(quickConfig(GossipLearning, Proactive()))
	if err != nil {
		t.Fatal(err)
	}
	randomized, err := Run(quickConfig(GossipLearning, Randomized(5, 10)))
	if err != nil {
		t.Fatal(err)
	}
	generalized, err := Run(quickConfig(GossipLearning, Generalized(5, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if proactive.SteadyStateMetric <= 0 {
		t.Fatalf("proactive metric = %v", proactive.SteadyStateMetric)
	}
	if randomized.SteadyStateMetric < 2*proactive.SteadyStateMetric {
		t.Errorf("randomized progress %v not clearly above proactive %v",
			randomized.SteadyStateMetric, proactive.SteadyStateMetric)
	}
	if generalized.SteadyStateMetric < 2*proactive.SteadyStateMetric {
		t.Errorf("generalized progress %v not clearly above proactive %v",
			generalized.SteadyStateMetric, proactive.SteadyStateMetric)
	}
	// Budgets: nobody exceeds one message per node per round.
	for _, res := range []*Result{proactive, randomized, generalized} {
		if res.MessagesPerNodePerRound > 1.01 {
			t.Errorf("%s: budget exceeded: %v msgs/node/round",
				res.Config.Strategy.Label(), res.MessagesPerNodePerRound)
		}
	}
	// The proactive baseline uses its budget fully.
	if math.Abs(proactive.MessagesPerNodePerRound-1) > 0.01 {
		t.Errorf("proactive budget = %v, want ≈ 1", proactive.MessagesPerNodePerRound)
	}
}

func TestPushGossipLagImprovement(t *testing.T) {
	proactive, err := Run(quickConfig(PushGossip, Proactive()))
	if err != nil {
		t.Fatal(err)
	}
	generalized, err := Run(quickConfig(PushGossip, Generalized(5, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if proactive.SteadyStateMetric <= 0 || generalized.SteadyStateMetric <= 0 {
		t.Fatalf("lags should be positive: %v, %v", proactive.SteadyStateMetric, generalized.SteadyStateMetric)
	}
	// The paper reports roughly a threefold delay reduction; require a clear
	// improvement here.
	if generalized.SteadyStateMetric > 0.7*proactive.SteadyStateMetric {
		t.Errorf("generalized lag %v not clearly below proactive %v",
			generalized.SteadyStateMetric, proactive.SteadyStateMetric)
	}
	if generalized.MessagesPerNodePerRound > 1.01 {
		t.Errorf("budget exceeded: %v", generalized.MessagesPerNodePerRound)
	}
}

func TestChaoticIterationConverges(t *testing.T) {
	cfg := quickConfig(ChaoticIteration, Randomized(5, 10))
	cfg.N = 100
	cfg.Rounds = 80
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Len() == 0 {
		t.Fatal("no metric samples")
	}
	first := res.Metric.Values[0]
	if res.FinalMetric >= first {
		t.Errorf("angle did not decrease: first %v, final %v", first, res.FinalMetric)
	}
	if res.FinalMetric > 0.5 {
		t.Errorf("final angle %v still large", res.FinalMetric)
	}
}

func TestSmartphoneTraceScenarioRuns(t *testing.T) {
	cfg := quickConfig(PushGossip, Generalized(5, 10))
	cfg.Scenario = SmartphoneTrace
	cfg.Rounds = 80
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Len() == 0 {
		t.Fatal("no samples")
	}
	// Under churn the budget is below 1 because offline nodes earn no tokens.
	if res.MessagesPerNodePerRound > 1.01 {
		t.Errorf("budget exceeded under churn: %v", res.MessagesPerNodePerRound)
	}
	if res.MessagesPerNodePerRound <= 0 {
		t.Error("no messages sent under churn")
	}
}

func TestGossipLearningTraceScenarioRuns(t *testing.T) {
	cfg := quickConfig(GossipLearning, Randomized(5, 10))
	cfg.Scenario = SmartphoneTrace
	cfg.Rounds = 80
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyStateMetric <= 0 {
		t.Errorf("steady-state progress = %v, want > 0", res.SteadyStateMetric)
	}
}

// TestAuditRateLimitPasses runs audited assemblies on both runtimes: the
// §3.4 envelope holds on the simulator and on the wall-clock runtime, whose
// ticks re-arm one Δ after they ran however late that was, Δ lasting about
// 35 ms of wall time. The audited socket fleets are the daemon tests and
// TestMultiProcessCluster (cmd/tokennode).
func TestAuditRateLimitPasses(t *testing.T) {
	live := func(spec string) Config {
		cfg := quickConfig(PushGossip, Randomized(5, 10))
		cfg.N, cfg.Rounds = 30, 10
		var err error
		if cfg.Runtime, err = ParseRuntime(spec); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"sim", quickConfig(GossipLearning, Generalized(1, 20))},
		{"live", live("live:0.0002")},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.AuditRateLimit = true
			if _, err := Run(c.cfg); err != nil {
				t.Errorf("audited run failed: %v", err)
			}
		})
	}
}

// TestRateLimitHoldsUnderChurn audits every node of a churn run against
// the §3.4 bound for the three bounded families. A node that finds no peer
// online banks the round's token only up to C; banking past it let such a
// node later spend C + 1 tokens in one burst, one send over the bound.
func TestRateLimitHoldsUnderChurn(t *testing.T) {
	for _, spec := range []StrategySpec{Simple(10), Generalized(5, 10), Randomized(5, 10)} {
		cfg := quickConfig(PushGossip, spec)
		cfg.Scenario = SmartphoneTrace
		cfg.N, cfg.Rounds, cfg.Seed = 1000, 1000, 300
		cfg.AuditRateLimit = true
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

func TestRepetitionsAreAveraged(t *testing.T) {
	cfg := quickConfig(GossipLearning, Randomized(5, 10))
	cfg.N = 60
	cfg.Rounds = 30
	cfg.Repetitions = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric.Len() == 0 {
		t.Fatal("no samples")
	}
	if res.Config.Repetitions != 3 {
		t.Errorf("config echo wrong: %d", res.Config.Repetitions)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickConfig(PushGossip, Randomized(5, 10))
	cfg.N = 80
	cfg.Rounds = 40
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MessagesSent != b.MessagesSent || a.FinalMetric != b.FinalMetric {
		t.Errorf("identical configs produced different results: (%v,%v) vs (%v,%v)",
			a.MessagesSent, a.FinalMetric, b.MessagesSent, b.FinalMetric)
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.MessagesSent == a.MessagesSent && c.FinalMetric == a.FinalMetric {
		t.Error("different seeds produced identical results")
	}
}

// TestMessageLossSlowsButDoesNotStopConvergence runs gossip learning under
// 40 % loss. The lossy run's numbers are the ones a Host-level loss lottery
// of the same probability gave before the lossy network was the only loss:
// over a constant network the lottery takes the same draw.
func TestMessageLossSlowsButDoesNotStopConvergence(t *testing.T) {
	lossless := quickConfig(GossipLearning, Randomized(5, 10))
	lossy := lossless
	var err error
	if lossy.Network, err = ParseNetwork("lossy:0.4:constant"); err != nil {
		t.Fatal(err)
	}
	clean, err := Run(lossless)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.MessagesSent != 6293 || faulty.FinalMetric != 0.05713750000000002 || faulty.SteadyStateMetric != 0.04978695693165783 {
		t.Errorf("lossy run: sent %v, final metric %v, steady-state metric %v; want 6293, 0.05713750000000002, 0.04978695693165783",
			faulty.MessagesSent, faulty.FinalMetric, faulty.SteadyStateMetric)
	}
	if faulty.SteadyStateMetric <= 0 {
		t.Error("progress stalled completely under 40% message loss")
	}
	if faulty.SteadyStateMetric >= clean.SteadyStateMetric {
		t.Errorf("lossy run (%v) should be slower than the lossless run (%v)",
			faulty.SteadyStateMetric, clean.SteadyStateMetric)
	}
}

func TestTrackTokensProducesSeries(t *testing.T) {
	cfg := quickConfig(GossipLearning, Randomized(5, 10))
	cfg.TrackTokens = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens == nil || res.Tokens.Len() == 0 {
		t.Fatal("token series missing")
	}
	if res.Tokens.Max() > 10+1e-9 {
		t.Errorf("average tokens %v exceed capacity", res.Tokens.Max())
	}
}
