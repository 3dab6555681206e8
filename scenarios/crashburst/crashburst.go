// Package crashburst adds a correlated-failure scenario to the experiment
// layer: a configurable fraction of nodes crashes simultaneously mid-run and
// rejoins together after a fixed outage. Unlike the smartphone trace, whose
// failures are independent and diurnal, a crash burst models a datacenter or
// network partition event, exercising the fault-tolerance role of the
// proactive component (and, for push gossip, the rejoin pull of §4.1.2).
//
// The package is deliberately built only on the public experiment registry:
// importing it (usually with a blank import) registers the "crash-burst"
// scenario, after which it is selectable wherever scenarios are parsed, e.g.
//
//	tokensim -app push-gossip -scenario crash-burst:0.4
//
// with the spec form "crash-burst[:fraction[:crashRound[:downRounds]]]".
// The generic experiment pipeline needs no modification — this package is
// the living proof of the ScenarioDriver extension point.
package crashburst

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/trace"
)

func init() {
	experiment.MustRegisterScenario("crash-burst", factory, "crashburst", "burst")
}

// Scenario is the crash-burst scenario driver. The zero value uses the
// defaults: 30% of the nodes crash at the middle of the run and stay down
// for a quarter of the run.
type Scenario struct {
	// Fraction is the fraction of nodes that crash (0 means the default
	// 0.3).
	Fraction float64
	// CrashRound is the proactive round at which the burst strikes (0 means
	// the middle of the run).
	CrashRound int
	// DownRounds is the outage length in proactive rounds (0 means a
	// quarter of the run).
	DownRounds int
}

// factory builds a Scenario from the colon-separated parameters of a spec
// string such as "crash-burst:0.4:500:100". All parameters are optional;
// trailing unconsumed parameters are rejected.
func factory(args []string) (experiment.ScenarioDriver, error) {
	s := &Scenario{}
	if len(args) > 3 {
		return nil, fmt.Errorf("crashburst: unexpected trailing parameter(s) %v (want crash-burst[:fraction[:crashRound[:downRounds]]])", args[3:])
	}
	if len(args) > 0 {
		f, err := strconv.ParseFloat(args[0], 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("crashburst: bad fraction %q (want a number in (0, 1])", args[0])
		}
		s.Fraction = f
	}
	for i, field := range []*int{&s.CrashRound, &s.DownRounds} {
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

// Name implements experiment.ScenarioDriver.
func (s *Scenario) Name() string { return "crash-burst" }

// String renders the scenario with its effective parameters, so differently
// parameterized instances stay distinguishable in labels and sweep output.
func (s *Scenario) String() string {
	label := fmt.Sprintf("crash-burst(f=%g", s.fraction())
	if s.CrashRound != 0 {
		label += fmt.Sprintf(",at=%d", s.CrashRound)
	}
	if s.DownRounds != 0 {
		label += fmt.Sprintf(",down=%d", s.DownRounds)
	}
	return label + ")"
}

// Churny implements experiment.ScenarioDriver: the burst takes nodes
// offline, so metrics are computed over online nodes only.
func (s *Scenario) Churny() bool { return true }

func (s *Scenario) fraction() float64 {
	if s.Fraction == 0 {
		return 0.3
	}
	return s.Fraction
}

// window resolves the effective crash window of a run with the given number
// of rounds.
func (s *Scenario) window(rounds int) (crashRound, downRounds int) {
	crashRound = s.CrashRound
	if crashRound == 0 {
		crashRound = rounds / 2
	}
	downRounds = s.DownRounds
	if downRounds == 0 {
		downRounds = rounds / 4
	}
	if downRounds < 1 {
		downRounds = 1
	}
	return crashRound, downRounds
}

// BuildTrace implements experiment.ScenarioDriver: every node is online
// except the crashed fraction, which is offline during
// [CrashRound·Δ, (CrashRound+DownRounds)·Δ). The crashed subset is drawn
// deterministically from the repetition seed.
func (s *Scenario) BuildTrace(cfg experiment.Config, seed uint64) (*trace.Trace, error) {
	// Directly constructed Scenario values bypass factory's parsing, so the
	// range check must live here too.
	if f := s.fraction(); f <= 0 || f > 1 {
		return nil, fmt.Errorf("crashburst: fraction %g outside (0, 1]", s.Fraction)
	}
	if s.DownRounds < 0 {
		return nil, fmt.Errorf("crashburst: negative outage length %d", s.DownRounds)
	}
	crashRound, downRounds := s.window(cfg.Rounds)
	if crashRound < 0 || crashRound >= cfg.Rounds {
		return nil, fmt.Errorf("crashburst: crash round %d outside the run (%d rounds)", crashRound, cfg.Rounds)
	}
	duration := cfg.Duration()
	crashT := float64(crashRound) * cfg.Delta
	rejoinT := crashT + float64(downRounds)*cfg.Delta

	crashers := int(s.fraction()*float64(cfg.N) + 0.5)
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
