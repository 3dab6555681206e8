package experiment

import (
	"fmt"
	"strings"

	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/workload"
)

// The traffic workloads, a fixed set resolved by ParseWorkload. A
// WorkloadDriver turns a spec string such as "poisson:0.5" or
// "flashcrowd:3600:20:600:poisson:0.5" into the update-injection arrival
// process one repetition runs under; the default IntervalWorkload is the
// paper's fixed DefaultInjectionInterval drip. The availability side of the
// workload package plugs into the scenario dimension instead (the "outage"
// scenario in scenarios.go), so churn generators reuse the host's
// trace-driven lifecycle path unchanged.

// IntervalWorkload is the default workload driver: one update injection every
// DefaultInjectionInterval, exactly as in the paper's evaluation. Its
// arrivals are those of the spec "interval:17.28", so default runs and the
// explicit spec inject at bit-identical times; the spec form "interval:25"
// sets another spacing.
var IntervalWorkload WorkloadDriver = intervalWorkload{}

// IsDefaultWorkload reports whether d is the default fixed-interval workload,
// whose label the output formats suppress so default output keeps its
// historical form. A nil driver counts as default, since WithDefaults
// resolves nil to IntervalWorkload.
func IsDefaultWorkload(d WorkloadDriver) bool {
	return d == nil || d == IntervalWorkload
}

// ParseWorkload resolves a workload spec string in the workload package's
// grammar (workload.ParseSpec): "interval:every", "poisson:rate",
// "pareto-onoff:rate:on:off:alpha", "diurnal:period:amplitude:<inner>",
// "flashcrowd:at:peak:decay:<inner>" or "replay:path". A bare "interval" is
// the default IntervalWorkload; "drip", "onoff", "selfsimilar" and "flash"
// name interval, pareto-onoff and flashcrowd at the top level.
func ParseWorkload(spec string) (WorkloadDriver, error) {
	name, params, hasParams := strings.Cut(strings.TrimSpace(spec), ":")
	switch name {
	case "interval", "drip":
		if !hasParams {
			return IntervalWorkload, nil
		}
		name = "interval"
	case "pareto-onoff", "onoff", "selfsimilar":
		name = "pareto-onoff"
	case "flashcrowd", "flash":
		name = "flashcrowd"
	case "poisson", "diurnal", "replay":
	default:
		return nil, fmt.Errorf("experiment: unknown workload %q (registered: %s)",
			spec, strings.Join(Workloads(), ", "))
	}
	ws, err := workload.ParseSpec(name + ":" + params)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return newSpecWorkload(ws), nil
}

// Workloads returns the names of the six workloads in sorted order.
func Workloads() []string {
	return []string{"diurnal", "flashcrowd", "interval", "pareto-onoff", "poisson", "replay"}
}

// WorkloadDriver supplies the traffic workload of an experiment: the arrival
// process driving update injections: "interval" (the default), "poisson",
// "pareto-onoff", "diurnal", "flashcrowd" or "replay".
type WorkloadDriver interface {
	// Name is the canonical workload name, used by ParseWorkload and in
	// Config.Label.
	Name() string
	// Arrivals builds the arrival-process realization of one repetition. All
	// randomness must be a pure function of seed (the repetition seed: wrap
	// it with workload.ArrivalSeed to stay decorrelated from the runtime
	// streams). The source must not be nil.
	Arrivals(cfg Config, seed uint64) (runtime.ArrivalSource, error)
}

// ArrivalConsumer is an optional AppDriver capability: ArrivalDriven reports
// whether the application consumes the workload arrival process (push gossip
// injects one update per arrival). Configs pairing a non-default workload
// with an application that ignores arrivals are rejected at validation time
// instead of silently running the default traffic.
type ArrivalConsumer interface {
	ArrivalDriven() bool
}

// newSpecWorkload wraps an arrival-process spec as a WorkloadDriver. The
// driver's label is the spec's parseable String form, so parameterized
// workloads stay distinguishable in experiment labels and sweep rows.
func newSpecWorkload(spec workload.Spec) WorkloadDriver {
	name := spec.String()
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	return specWorkload{name: name, spec: spec}
}

type specWorkload struct {
	name string
	spec workload.Spec
}

func (d specWorkload) Name() string   { return d.name }
func (d specWorkload) String() string { return d.spec.String() }

func (d specWorkload) Arrivals(_ Config, seed uint64) (runtime.ArrivalSource, error) {
	return d.spec.New(workload.ArrivalSeed(seed)), nil
}

// Spec returns the wrapped arrival-process spec.
func (d specWorkload) Spec() workload.Spec { return d.spec }

// intervalWorkload is the parameter-free default: arrivals every
// DefaultInjectionInterval.
type intervalWorkload struct{}

func (intervalWorkload) Name() string   { return "interval" }
func (intervalWorkload) String() string { return "interval" }

func (intervalWorkload) Arrivals(_ Config, seed uint64) (runtime.ArrivalSource, error) {
	return workload.Interval{Every: DefaultInjectionInterval}.New(seed), nil
}
