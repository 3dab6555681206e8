package experiment

import (
	"fmt"
	"strings"

	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/workload"
)

// Workload is the traffic workload of an experiment, a plain value like
// StrategySpec resolved by ParseWorkload from a spec string such as
// "poisson:0.5" or "flashcrowd:3600:20:600:poisson:0.5": the arrival process
// driving update injections. The zero value is the paper's traffic (§4.1),
// one injection every DefaultInjectionInterval. The availability side of the
// workload package plugs into the scenario dimension instead (the "outage"
// scenario in scenarios.go), so churn generators reuse the host's
// trace-driven lifecycle path unchanged.
type Workload struct {
	// spec is the parsed arrival process; nil means
	// workload.Interval{Every: DefaultInjectionInterval}.
	spec workload.Spec
}

// IsDefault reports whether w is the paper's fixed-interval workload, whose
// label the output formats suppress so default output keeps its historical
// form. The explicit spec "interval:17.28" injects at the same times but is
// not the default.
func (w Workload) IsDefault() bool { return w.spec == nil }

// Name is the canonical workload name, the first field of String.
func (w Workload) Name() string {
	name, _, _ := strings.Cut(w.String(), ":")
	return name
}

// String renders the workload in the spec form ParseWorkload accepts.
func (w Workload) String() string {
	if w.spec == nil {
		return "interval"
	}
	return w.spec.String()
}

// Arrivals builds the arrival process of one repetition, a pure function of
// the repetition seed (through workload.ArrivalSeed, so it stays
// decorrelated from the runtime streams). It never returns an error; the
// signature is the one bench/simbench.go calls (ROADMAP item 18).
func (w Workload) Arrivals(_ Config, seed uint64) (runtime.ArrivalSource, error) {
	spec := w.spec
	if spec == nil {
		spec = workload.Interval{Every: DefaultInjectionInterval}
	}
	return spec.New(workload.ArrivalSeed(seed)), nil
}

// ParseWorkload resolves a workload spec string in the workload package's
// grammar (workload.ParseSpec): "interval:every", "poisson:rate",
// "pareto-onoff:rate:on:off:alpha", "diurnal:period:amplitude:<inner>",
// "flashcrowd:at:peak:decay:<inner>" or "replay:path". A bare "interval" is
// the default Workload; "drip", "onoff", "selfsimilar" and "flash"
// name interval, pareto-onoff and flashcrowd at the top level.
func ParseWorkload(spec string) (Workload, error) {
	name, params, hasParams := strings.Cut(strings.TrimSpace(spec), ":")
	switch name {
	case "interval", "drip":
		if !hasParams {
			return Workload{}, nil
		}
		name = "interval"
	case "pareto-onoff", "onoff", "selfsimilar":
		name = "pareto-onoff"
	case "flashcrowd", "flash":
		name = "flashcrowd"
	case "poisson", "diurnal", "replay":
	default:
		return Workload{}, fmt.Errorf("experiment: unknown workload %q (registered: %s)",
			spec, strings.Join(Workloads(), ", "))
	}
	ws, err := workload.ParseSpec(name + ":" + params)
	if err != nil {
		return Workload{}, fmt.Errorf("experiment: %w", err)
	}
	return Workload{spec: ws}, nil
}

// Workloads returns the names of the six workloads in sorted order.
func Workloads() []string {
	return []string{"diurnal", "flashcrowd", "interval", "pareto-onoff", "poisson", "replay"}
}

// ArrivalConsumer is an optional AppDriver capability: ArrivalDriven reports
// whether the application consumes the workload arrival process (push gossip
// injects one update per arrival). Configs pairing a non-default workload
// with an application that ignores arrivals are rejected at validation time
// instead of silently running the default traffic.
type ArrivalConsumer interface {
	ArrivalDriven() bool
}
