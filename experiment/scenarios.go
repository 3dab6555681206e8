package experiment

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/trace"
	"github.com/szte-dcs/tokenaccount/workload"
)

// The failure scenarios, a fixed set resolved by ParseScenario: the two of
// §4.1 (failure-free, smartphone trace) and two correlated-failure models
// (regional outages, a crash burst). The paper's two are ordinary
// ScenarioDriver values: comparing against them (cfg.Scenario ==
// experiment.FailureFree) identifies them.
var (
	// FailureFree keeps every node online for the whole run.
	FailureFree ScenarioDriver = failureFreeScenario{}
	// SmartphoneTrace drives availability from a (synthetic) smartphone
	// churn trace with a diurnal pattern.
	SmartphoneTrace ScenarioDriver = smartphoneTraceScenario{}
)

// ParseScenario resolves a scenario spec string "failure-free" ("ff"),
// "smartphone-trace" ("trace", "churn"), "outage[:zones:p:duration]"
// ("outages") or "crash-burst[:fraction[:crashRound[:downRounds]]]"
// ("crashburst", "burst").
func ParseScenario(spec string) (ScenarioDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	args := parts[1:]
	var d ScenarioDriver
	switch parts[0] {
	case "failure-free", "ff":
		d = FailureFree
	case "smartphone-trace", "trace", "churn":
		d = SmartphoneTrace
	case "outage", "outages":
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
	case "crash-burst", "crashburst", "burst":
		return parseCrashBurst(args)
	default:
		return nil, fmt.Errorf("experiment: unknown scenario %q (registered: %s)",
			spec, strings.Join(Scenarios(), ", "))
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("experiment: scenario %q takes no parameters, got %q",
			d.Name(), strings.Join(args, ":"))
	}
	return d, nil
}

// Scenarios returns the names of the four scenarios in sorted order.
func Scenarios() []string {
	return []string{"crash-burst", "failure-free", "outage", "smartphone-trace"}
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

// crashBurstScenario is a correlated failure: a fraction of the nodes
// crashes at once mid-run and rejoins together after a fixed outage.
// Unlike the smartphone trace, whose failures are independent and diurnal,
// it models a datacenter or network partition event, exercising the
// fault-tolerance role of the proactive component (and, for push gossip, the
// rejoin pull of §4.1.2).
type crashBurstScenario struct {
	fraction   float64 // fraction of the nodes that crash, in (0, 1]
	crashRound int     // proactive round of the burst; 0 means the middle of the run
	downRounds int     // outage length in proactive rounds; 0 means a quarter of the run
}

// parseCrashBurst builds the scenario from the parameters of a spec string
// such as "crash-burst:0.4:500:100". All parameters are optional; the
// fraction defaults to 0.3.
func parseCrashBurst(args []string) (ScenarioDriver, error) {
	s := crashBurstScenario{fraction: 0.3}
	if len(args) > 3 {
		return nil, fmt.Errorf("crashburst: unexpected trailing parameter(s) %v (want crash-burst[:fraction[:crashRound[:downRounds]]])", args[3:])
	}
	if len(args) > 0 {
		f, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("crashburst: bad fraction %q (want a number in (0, 1])", args[0])
		}
		s.fraction = f
	}
	for i, field := range []*int{&s.crashRound, &s.downRounds} {
		if len(args) > i+1 {
			v, err := strconv.Atoi(args[i+1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("crashburst: bad round count %q (want a positive integer)", args[i+1])
			}
			*field = v
		}
	}
	return s, nil
}

func (crashBurstScenario) Name() string { return "crash-burst" }

// String renders the scenario with its parameters, so differently
// parameterized instances stay distinguishable in labels and sweep output.
func (s crashBurstScenario) String() string {
	label := fmt.Sprintf("crash-burst(f=%g", s.fraction)
	if s.crashRound != 0 {
		label += fmt.Sprintf(",at=%d", s.crashRound)
	}
	if s.downRounds != 0 {
		label += fmt.Sprintf(",down=%d", s.downRounds)
	}
	return label + ")"
}

func (crashBurstScenario) Churny() bool { return true }

// BuildTrace keeps every node online except the crashed fraction, which is
// offline during [crashRound·Δ, (crashRound+downRounds)·Δ). The crashed
// subset is drawn deterministically from the repetition seed.
func (s crashBurstScenario) BuildTrace(cfg Config, seed uint64) (*trace.Trace, error) {
	crashRound, downRounds := s.crashRound, s.downRounds
	if crashRound == 0 {
		crashRound = cfg.Rounds / 2
	}
	if downRounds == 0 {
		downRounds = max(1, cfg.Rounds/4)
	}
	if crashRound >= cfg.Rounds {
		return nil, fmt.Errorf("crashburst: crash round %d outside the run (%d rounds)", crashRound, cfg.Rounds)
	}
	duration := cfg.Duration()
	crashT := float64(crashRound) * cfg.Delta
	rejoinT := crashT + float64(downRounds)*cfg.Delta

	crashers := int(s.fraction*float64(cfg.N) + 0.5)
	crashed := make([]bool, cfg.N)
	r := rand.New(rand.NewPCG(seed, 0x63726173686275)) // "crashbu"
	for _, node := range r.Perm(cfg.N)[:crashers] {
		crashed[node] = true
	}

	segments := make([]trace.Segment, cfg.N)
	for i := range segments {
		if crashed[i] {
			intervals := []trace.Interval{{Start: 0, End: crashT}}
			// An outage reaching past the end of the run means the node never
			// comes back; an empty [duration, duration) interval would still
			// schedule a spurious rejoin transition at the final instant.
			if rejoinT < duration {
				intervals = append(intervals, trace.Interval{Start: rejoinT, End: duration})
			}
			segments[i] = trace.Segment{Intervals: intervals}
		} else {
			segments[i] = trace.Segment{Intervals: []trace.Interval{{Start: 0, End: duration}}}
		}
	}
	return &trace.Trace{Duration: duration, Segments: segments}, nil
}
