package experiment

import (
	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/trace"
	"github.com/szte-dcs/tokenaccount/workload"
)

// The failure scenarios of §4.1, as self-registering drivers. They are
// ordinary ScenarioDriver values: comparing against them (cfg.Scenario ==
// experiment.FailureFree) identifies the built-ins.
var (
	// FailureFree keeps every node online for the whole run.
	FailureFree ScenarioDriver = failureFreeScenario{}
	// SmartphoneTrace drives availability from a (synthetic) smartphone
	// churn trace with a diurnal pattern.
	SmartphoneTrace ScenarioDriver = smartphoneTraceScenario{}
)

func init() {
	mustRegisterScenarioDriver(FailureFree, "ff")
	mustRegisterScenarioDriver(SmartphoneTrace, "trace", "churn")
	MustRegisterScenario("outage", func(args []string) (ScenarioDriver, error) {
		if len(args) == 0 {
			// Bare "outage" means the default parameterization: four zones,
			// each down 10% of the time in 900 s windows.
			args = []string{"4", "0.1", "900"}
		}
		gen, err := workload.ParseOutages(args)
		if err != nil {
			return nil, err
		}
		return outageScenario{gen: gen}, nil
	}, "outages")
}

// mustRegisterScenarioDriver is registerScenarioDriver, panicking on error.
func mustRegisterScenarioDriver(driver ScenarioDriver, aliases ...string) {
	if err := registerScenarioDriver(driver, aliases...); err != nil {
		panic(err)
	}
}

type failureFreeScenario struct{}

func (failureFreeScenario) Name() string     { return "failure-free" }
func (d failureFreeScenario) String() string { return d.Name() }
func (failureFreeScenario) Churny() bool     { return false }

// BuildTrace returns nil: the absence of a trace means every node stays
// online.
func (failureFreeScenario) BuildTrace(cfg Config, seed uint64) (*trace.Trace, error) {
	return nil, nil
}

type smartphoneTraceScenario struct{}

func (smartphoneTraceScenario) Name() string     { return "smartphone-trace" }
func (d smartphoneTraceScenario) String() string { return d.Name() }
func (smartphoneTraceScenario) Churny() bool     { return true }

func (smartphoneTraceScenario) BuildTrace(cfg Config, seed uint64) (*trace.Trace, error) {
	// Generate one synthetic 2-day segment per node (the paper assigns a
	// different real segment to each node). The segment duration must cover
	// the experiment.
	smCfg := trace.DefaultSmartphoneConfig(cfg.N, rng.Derive(seed, 0x7472616365))
	smCfg.Duration = cfg.Duration()
	return trace.Smartphone(smCfg)
}

// outageScenario drives availability from the workload package's correlated
// regional outage generator ("outage:zones:p:duration"): whole netmodel zones
// drop and rejoin together. The generator realizes an ordinary availability
// trace, so the host's lifecycle path — including rejoin pulls — runs
// unchanged.
type outageScenario struct {
	gen workload.Outages
}

func (outageScenario) Name() string     { return "outage" }
func (s outageScenario) String() string { return s.gen.String() }
func (outageScenario) Churny() bool     { return true }

func (s outageScenario) BuildTrace(cfg Config, seed uint64) (*trace.Trace, error) {
	return s.gen.Trace(cfg.N, cfg.Duration(), seed)
}
