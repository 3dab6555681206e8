package experiment

import (
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/trace"
)

// AppDriver describes one workload: it builds the overlay the application
// runs on, constructs per-run state, and samples the application performance
// metric. ParseApplication resolves the names of the four built-in drivers
// (the three paper applications and blockcast); any other driver runs
// through the same generic pipeline when it is passed as Config.App.
//
// A driver may additionally implement ConfigValidator and MetricFinisher to
// participate in config validation and metric post-processing.
type AppDriver interface {
	// Name is the canonical name, used by ParseApplication and in
	// Config.Label. It must be stable and non-empty.
	Name() string
	// MetricLabel is the y-axis label of the application metric, used by the
	// figure tables.
	MetricLabel() string
	// BuildOverlay constructs the communication overlay for one repetition.
	// Drivers should derive any randomness from seed so repetitions stay
	// reproducible.
	BuildOverlay(cfg Config, seed uint64) (*overlay.Graph, error)
	// NewRun constructs the per-repetition application state. It is called
	// once per repetition, after the overlay is built and before the network
	// is assembled.
	NewRun(cfg Config, graph *overlay.Graph) (AppRun, error)
}

// AppRun is the state of one repetition of an application. The run pipeline
// asks it for one protocol.Application per node and one metric sample per
// sampling instant.
//
// A run may additionally implement RunStarter (to install periodic events
// such as the push gossip update injection) and RejoinHandler (to react to
// nodes coming back online under churn, such as the push gossip pull).
type AppRun interface {
	// NewApp returns the application instance of the given node. It is called
	// exactly once per node, in node order, while the network is assembled.
	NewApp(node int) protocol.Application
	// Sample returns the application metric at virtual time t.
	Sample(t float64, rc *RunContext) float64
}

// ScenarioDriver supplies the failure model of an experiment: the
// availability trace that takes nodes on- and offline (nil for failure-free
// operation) and, through the trace, the lifecycle events — most importantly
// the rejoin transitions that feed RejoinHandler hooks such as the push
// gossip pull. ParseScenario resolves the names of the four built-in
// scenarios; any other driver runs through the same generic pipeline when it
// is passed as Config.Scenario.
type ScenarioDriver interface {
	// Name is the canonical name, used by ParseScenario and in
	// Config.Label.
	Name() string
	// Churny reports whether the scenario ever takes nodes offline. Metrics
	// are sampled over online nodes only in churny scenarios, and
	// applications whose metric is undefined under churn (chaotic iteration)
	// reject churny scenarios at validation time.
	Churny() bool
	// BuildTrace constructs the availability trace of one repetition, or
	// returns nil for always-on operation. The trace must cover at least
	// cfg.N nodes and cfg.Duration() seconds.
	BuildTrace(cfg Config, seed uint64) (*trace.Trace, error)
}

// RunContext carries the assembled pieces of one repetition to the AppRun
// hooks (Start, Sample, OnRejoin). Config, Seed, Graph, Trace and OnlineOnly
// are valid in every hook; Host and Online are set once the run is
// assembled, i.e. in everything except NewApp (which runs while the network
// is being assembled and receives no context).
type RunContext struct {
	// Config is the fully defaulted experiment configuration.
	Config Config
	// Seed is the seed of this repetition (Config.Seed + repetition index).
	Seed uint64
	// Graph is the overlay the application runs on.
	Graph *overlay.Graph
	// Trace is the availability trace, nil in failure-free scenarios.
	Trace *trace.Trace
	// Host is the assembled run: the protocol nodes plus the environment
	// (simulated or live) they execute on. Hooks schedule events through
	// Host.Env(), so they run identically in every runtime.
	Host *runtime.Host
	// Online reports whether a node is currently online.
	Online func(node int) bool
	// Arrivals is the workload's update-injection arrival process for this
	// repetition. It is never nil: the default workload yields one arrival
	// every DefaultInjectionInterval, the paper's traffic. Arrival-driven
	// applications hand it to Host.ScheduleArrivals.
	Arrivals runtime.ArrivalSource
	// OnlineOnly reports whether metrics should be computed over online
	// nodes only (true exactly when the scenario supplied a trace).
	OnlineOnly bool
}

// ConfigValidator is an optional AppDriver capability: Validate vetoes
// configurations the application cannot run (for example chaotic iteration
// under a churny scenario).
type ConfigValidator interface {
	Validate(cfg Config) error
}

// RunStarter is an optional AppRun capability: Start is invoked after the
// network is assembled and before the first event executes, so the run can
// install periodic events (e.g. the push gossip update injection).
type RunStarter interface {
	Start(rc *RunContext)
}

// RejoinHandler is an optional AppRun capability: OnRejoin is invoked
// whenever a node transitions from offline to online. It is only wired up
// when the scenario supplies an availability trace. The handler receives the
// runtime-neutral host, so rejoin reactions (such as the push gossip pull)
// behave the same in the simulated and the live runtime.
type RejoinHandler interface {
	OnRejoin(h *runtime.Host, node int)
}

// AppConfigurer is an optional AppDriver capability for parameterized
// application families: WithParams returns a driver configured with the
// colon-separated parameters following the application name in a
// ParseApplication spec such as "blockcast:64:172.8". The receiver is the
// default-configured driver and must not be mutated.
type AppConfigurer interface {
	WithParams(args []string) (AppDriver, error)
}

// SummaryReporter is an optional AppDriver capability: applications whose
// outcome is more than the metric time series (latency quantiles, burst
// load) name their scalar summary columns here. The per-repetition values
// come from the run's RunSummarizer and land in Result.Summary, averaged
// over repetitions, in the same order.
type SummaryReporter interface {
	SummaryColumns() []string
}

// RunSummarizer is an optional AppRun capability paired with the driver's
// SummaryReporter: Summarize is invoked once per repetition after the run
// completes and returns one value per summary column.
type RunSummarizer interface {
	Summarize(rc *RunContext) []float64
}

// RuntimeDriver supplies the execution runtime of an experiment: it builds
// the runtime.Env one repetition runs on. The two runtimes are SimRuntime
// ("sim": the discrete-event engine in virtual time, the paper's setup, or
// its sharded variant) and LiveRuntime ("live": wall-clock timers, messages
// delivered in process). ParseRuntime resolves their spec strings. Sockets
// are the deployed daemon's business (live.Daemon, cmd/tokennode), not a
// runtime's.
type RuntimeDriver interface {
	// Name is the canonical runtime name, used by ParseRuntime.
	Name() string
	// NewEnv constructs the environment of one repetition. The environment
	// must provide at least cfg.N node slots, all initially online.
	NewEnv(cfg Config, seed uint64) (runtime.Env, error)
}

// MetricFinisher is an optional AppDriver capability: FinishMetric
// post-processes the repetition-averaged metric series (e.g. the push gossip
// smoothing window) before it is returned in Result.Metric.
type MetricFinisher interface {
	FinishMetric(cfg Config, avg *metrics.Series) *metrics.Series
}
