// Package experiment assembles complete, reproducible experiments matching
// the evaluation section of the paper (§4): an application, a token account
// strategy, an overlay, a failure scenario, the paper's timing parameters,
// repeated runs and metric time series.
//
// Every dimension is a fixed set resolved by one parser: the applications —
// gossip learning, push gossip, chaotic power iteration, plus blockcast —
// (ParseApplication), the failure scenarios — the paper's failure-free and
// smartphone trace, plus regional outages and a crash burst —
// (ParseScenario), the five strategy kinds (ParseStrategySpec), the two
// runtimes — the discrete-event simulator, sequential or sharded, and the
// wall-clock live runtime — (ParseRuntime), the network models
// (ParseNetwork) and the workloads (ParseWorkload). The run pipeline itself
// only sees the driver interfaces of driver.go, so a caller's own AppDriver
// or ScenarioDriver runs through it unchanged when set in Config.
package experiment

import (
	"context"
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/runtime"
)

// Paper-default timing parameters (§4.1): a virtual two-day period divided
// into 1000 proactive rounds, a transfer time of one hundredth of a round,
// and one update injection every tenth of a round for push gossip. The
// metric is sampled once per round.
const (
	DefaultDelta             = 172.80
	DefaultTransferDelay     = 1.728
	DefaultRounds            = 1000
	DefaultInjectionInterval = 17.28
	DefaultSmoothWindow      = 15 * 60 // 15-minute smoothing of push gossip curves
	DefaultOverlayK          = 20
	DefaultWSNeighbors       = 4
	DefaultWSBeta            = 0.01
)

// Config fully describes an experiment.
type Config struct {
	// App is the application driver (a built-in such as GossipLearning, or
	// any driver resolved through ParseApplication).
	App AppDriver
	// Strategy is the token account strategy specification.
	Strategy StrategySpec
	// N is the network size (5000 or 500,000 in the paper).
	N int
	// Rounds is the number of proactive periods simulated (1000 in the
	// paper).
	Rounds int
	// Delta is the proactive period in seconds.
	Delta float64
	// TransferDelay is the message transfer time in seconds.
	TransferDelay float64
	// Scenario is the failure model driver (FailureFree, SmartphoneTrace, or
	// any driver resolved through ParseScenario). Nil means FailureFree.
	Scenario ScenarioDriver
	// Runtime is the execution runtime driver (SimRuntime, LiveRuntime, or
	// any driver resolved through ParseRuntime). Nil means SimRuntime: the
	// discrete-event engine in virtual time.
	Runtime RuntimeDriver
	// Network is the network model, resolved through ParseNetwork. The zero
	// value is the paper's setup: every message delivered after
	// TransferDelay. Message loss is a network too: "lossy:0.1:constant"
	// drops one message in ten.
	Network Network
	// Workload is the traffic workload, resolved through ParseWorkload. The
	// zero value is the paper's traffic: one update injection every
	// DefaultInjectionInterval.
	Workload Workload
	// Seed drives all randomness; repetition r uses Seed+r.
	Seed uint64
	// Repetitions is the number of independent runs to average (the paper
	// uses 10).
	Repetitions int
	// OverlayK is the out-degree of the random overlay (gossip learning and
	// push gossip).
	OverlayK int
	// TrackTokens additionally records the average account balance over time
	// (used by Figure 5).
	TrackTokens bool
	// AuditRateLimit records and verifies the §3.4 envelope on every node
	// and fails the run on a violation.
	AuditRateLimit bool
}

// WithDefaults returns a copy of the config with unset fields replaced by the
// paper's defaults.
func (c Config) WithDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = DefaultRounds
	}
	if c.Delta == 0 {
		c.Delta = DefaultDelta
	}
	if c.TransferDelay == 0 {
		c.TransferDelay = DefaultTransferDelay
	}
	if c.Scenario == nil {
		c.Scenario = FailureFree
	}
	if c.Runtime == nil {
		c.Runtime = SimRuntime
	}
	if c.Repetitions == 0 {
		c.Repetitions = 1
	}
	if c.OverlayK == 0 {
		c.OverlayK = DefaultOverlayK
	}
	return c
}

// validate rejects configurations that cannot run, so that bad parameters
// fail at build time with an "experiment:" error instead of misbehaving deep
// inside the simulator. It expects a defaulted config (see WithDefaults).
func (c Config) validate() error {
	switch {
	case c.App == nil:
		return fmt.Errorf("experiment: no application driver set (use a built-in such as experiment.GossipLearning, or ParseApplication)")
	case c.Scenario == nil:
		return fmt.Errorf("experiment: no scenario driver set")
	case c.Runtime == nil:
		return fmt.Errorf("experiment: no runtime driver set")
	case c.N < 2:
		return fmt.Errorf("experiment: N = %d, need ≥ 2", c.N)
	case c.Rounds < 1:
		return fmt.Errorf("experiment: Rounds = %d, need ≥ 1", c.Rounds)
	case c.Repetitions < 1:
		return fmt.Errorf("experiment: Repetitions = %d, need ≥ 1", c.Repetitions)
	case !positiveFinite(c.Delta):
		return fmt.Errorf("experiment: Delta = %g, need > 0 and finite", c.Delta)
	case !positiveFinite(c.TransferDelay):
		return fmt.Errorf("experiment: TransferDelay = %g, need > 0 and finite", c.TransferDelay)
	}
	if v, ok := c.App.(ConfigValidator); ok {
		if err := v.Validate(c); err != nil {
			return err
		}
	}
	if !c.Workload.IsDefault() {
		ac, ok := c.App.(ArrivalConsumer)
		if !ok || !ac.ArrivalDriven() {
			return fmt.Errorf("experiment: application %s does not consume arrival workloads (workload %s would be ignored)",
				DriverLabel(c.App), DriverLabel(c.Workload))
		}
	}
	if _, err := c.Network.Model(c); err != nil {
		return err
	}
	if _, err := c.Strategy.Build(); err != nil {
		return err
	}
	return nil
}

// positiveFinite reports whether x is a usable time span: NaN fails every
// comparison, so a plain x <= 0 check would let it through.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Duration returns the simulated virtual time of the experiment.
func (c Config) Duration() float64 { return float64(c.Rounds) * c.Delta }

// Label returns a short identifier combining application, strategy and
// scenario, suitable for figure legends. Drivers that implement fmt.Stringer
// are rendered through it, so parameterized scenarios (crash-burst:0.4 vs
// crash-burst:0.5) stay distinguishable; the built-ins' String equals their
// Name. Runs on a non-default runtime append its label, so simulated output
// keeps its historical form while live runs stay distinguishable.
func (c Config) Label() string {
	label := fmt.Sprintf("%s/%s/%s/N=%d", DriverLabel(c.App), c.Strategy.Label(), DriverLabel(c.Scenario), c.N)
	if !c.Network.IsDefault() {
		label += "/net=" + DriverLabel(c.Network)
	}
	if !c.Workload.IsDefault() {
		label += "/wl=" + DriverLabel(c.Workload)
	}
	if !IsDefaultRuntime(c.Runtime) {
		label += "/" + DriverLabel(c.Runtime)
	}
	return label
}

// DriverLabel renders a value of any of the six dimensions for display — an
// AppDriver, ScenarioDriver, RuntimeDriver, Network, Workload or
// StrategySpec: through fmt.Stringer when implemented (so parameterized
// drivers show their parameters), falling back to Name(). Use it instead of
// %s when printing a driver — the interfaces do not require String().
func DriverLabel(d any) string {
	switch v := d.(type) {
	case fmt.Stringer:
		return v.String()
	case interface{ Name() string }:
		return v.Name()
	default:
		return "<none>"
	}
}

// Result is the outcome of an experiment, averaged over the repetitions.
type Result struct {
	// Config echoes the (defaulted) configuration of the run.
	Config Config
	// Metric is the application performance metric over virtual time:
	// eq. (6) for gossip learning, eq. (7) (smoothed) for push gossip, and
	// the eigenvector angle for chaotic iteration.
	Metric *metrics.Series
	// Tokens is the average account balance over time (nil unless
	// TrackTokens was set).
	Tokens *metrics.Series
	// MessagesSent is the mean number of messages sent per run.
	MessagesSent float64
	// BytesSent is the mean number of modeled wire bytes sent per run, each
	// message weighed by protocol.PayloadSize. Only blockcast's messages
	// weigh more than one byte, so for every other application BytesSent
	// equals MessagesSent.
	BytesSent float64
	// Summary holds the application's scalar summary statistics, averaged
	// over repetitions, when the driver implements SummaryReporter (the
	// column labels are its SummaryColumns). Nil otherwise.
	Summary []float64
	// EventsProcessed is the mean number of scheduler events executed per
	// run, when the runtime can report it (the discrete-event runtime can;
	// wall-clock runtimes report 0). It is the raw unit behind the
	// repository benchmark's events_per_sec on the simulator workloads.
	EventsProcessed float64
	// MessagesPerNodePerRound normalizes MessagesSent by N·Rounds, i.e. the
	// realized communication budget relative to the proactive baseline's 1.
	MessagesPerNodePerRound float64
	// InjectionsSkipped is the mean number of update injections per run that
	// were abandoned because no node was online at injection time. Heavy
	// churn and correlated outages lose updates this way; a non-zero value
	// flags that the workload's offered traffic exceeded what the network
	// could accept.
	InjectionsSkipped float64
	// FinalMetric is the last sample of Metric.
	FinalMetric float64
	// SteadyStateMetric is the mean of Metric over the second half of the
	// run.
	SteadyStateMetric float64
}

// Run executes the experiment: Repetitions independent runs whose metric
// series are averaged pointwise (as in the paper, which averages 10 runs).
// Repetitions run sequentially on the calling goroutine; use RunParallel to
// spread them over a worker pool — the results are bit-identical either way.
func Run(cfg Config) (*Result, error) {
	return RunParallel(context.Background(), cfg, 1)
}

// singleRun holds the raw output of one repetition.
type singleRun struct {
	metric  *metrics.Series
	tokens  *metrics.Series
	sent    int64
	bytes   int64
	events  uint64
	skipped int64
	summary []float64
}

// runOnce executes one repetition. It is fully generic: everything
// application-, scenario- or runtime-specific goes through the AppDriver,
// ScenarioDriver and RuntimeDriver interfaces (and the optional capabilities
// of driver.go), so a caller's own applications and scenarios run through
// exactly the same code path as the paper built-ins — and the same
// repetition assembly runs on the discrete-event engine and on the
// wall-clock runtime alike.
func runOnce(cfg Config, seed uint64) (*singleRun, error) {
	strategy, err := cfg.Strategy.Build()
	if err != nil {
		return nil, err
	}
	graph, err := cfg.App.BuildOverlay(cfg, seed)
	if err != nil {
		return nil, err
	}
	availability, err := cfg.Scenario.BuildTrace(cfg, seed)
	if err != nil {
		return nil, err
	}
	appRun, err := cfg.App.NewRun(cfg, graph)
	if err != nil {
		return nil, err
	}
	// Online-only sampling follows the scenario's Churny contract (identical
	// to trace presence for the built-ins; a churny scenario that returns no
	// trace for some config keeps every node online, so the online-only
	// computation degenerates to the all-nodes one).
	arrivals, err := cfg.Workload.Arrivals(cfg, seed)
	if err != nil {
		return nil, err
	}
	rc := &RunContext{
		Config:     cfg,
		Seed:       seed,
		Graph:      graph,
		Trace:      availability,
		Arrivals:   arrivals,
		OnlineOnly: cfg.Scenario.Churny(),
	}

	env, err := cfg.Runtime.NewEnv(cfg, seed)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	network, err := cfg.Network.Model(cfg)
	if err != nil {
		return nil, err
	}
	hostCfg := runtime.Config{
		Graph:    graph,
		Strategy: strategy,
		NewApp:   appRun.NewApp,
		Delta:    cfg.Delta,
		Trace:    availability,
		Network:  network,
		Audit:    cfg.AuditRateLimit,
	}
	// Rejoin hooks can only fire under churn, so they are wired up only when
	// the scenario supplied a trace.
	if rh, ok := appRun.(RejoinHandler); ok && availability != nil {
		hostCfg.OnRejoin = rh.OnRejoin
	}

	host, err := runtime.NewHost(env, hostCfg)
	if err != nil {
		return nil, err
	}
	rc.Host = host
	rc.Online = host.Online

	if s, ok := appRun.(RunStarter); ok {
		s.Start(rc)
	}

	run := &singleRun{metric: &metrics.Series{}}
	if cfg.TrackTokens {
		run.tokens = &metrics.Series{}
	}
	sample := func(t float64) {
		run.metric.Add(t, appRun.Sample(t, rc))
		if run.tokens != nil {
			run.tokens.Add(t, host.AverageTokens(rc.OnlineOnly))
		}
	}
	host.SamplePeriodic(cfg.Delta, cfg.Delta, sample)

	if err := host.Run(cfg.Duration()); err != nil {
		return nil, fmt.Errorf("experiment: runtime %s: %w", DriverLabel(cfg.Runtime), err)
	}
	run.sent = host.MessagesSent()
	run.bytes = host.BytesSent()
	run.skipped = host.InjectionsSkipped()
	if p, ok := env.(interface{ Processed() uint64 }); ok {
		run.events = p.Processed()
	}
	if s, ok := appRun.(RunSummarizer); ok {
		run.summary = s.Summarize(rc)
	}

	if cfg.AuditRateLimit {
		if violations := host.AuditViolations(); len(violations) > 0 {
			return nil, fmt.Errorf("experiment: rate limit violated: %v", violations[0])
		}
	}
	return run, nil
}
