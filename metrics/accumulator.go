package metrics

import (
	"fmt"
	"math"
)

// Accumulator averages repeated runs online: series are folded in one at a
// time and only the running sums are retained, so averaging R repetitions
// holds one sampling grid in memory instead of R full series. Series must be
// added in repetition order; because the accumulator performs the exact same
// additions in the exact same order as Average, the resulting mean is
// bit-identical to averaging the retained series after the fact. The zero
// value is an empty accumulator ready for use. An Accumulator is not safe for
// concurrent use; callers that fold from multiple goroutines must serialize
// (see experiment.RunParallel).
type Accumulator struct {
	times []float64
	sums  []float64
	runs  int
}

// Add folds one run into the accumulator. The first series added fixes the
// sampling grid; subsequent series must be sampled on the same grid.
func (a *Accumulator) Add(s *Series) error {
	if a.runs == 0 {
		a.times = append(a.times[:0], s.Times...)
		a.sums = append(a.sums[:0], make([]float64, s.Len())...)
	}
	if s.Len() != len(a.times) {
		return fmt.Errorf("metrics: run has %d samples, expected %d", s.Len(), len(a.times))
	}
	for i, t := range s.Times {
		if math.Abs(t-a.times[i]) > 1e-9 {
			return fmt.Errorf("metrics: sample %d at time %v, expected %v", i, t, a.times[i])
		}
	}
	for i, v := range s.Values {
		a.sums[i] += v
	}
	a.runs++
	return nil
}

// Runs returns the number of series folded in so far.
func (a *Accumulator) Runs() int { return a.runs }

// Merge folds every run accumulated in o into a, preserving order: the
// result corresponds to o's series following a's own, with the sums adding
// pointwise and the run counts adding. It lets shard- or worker-local
// accumulators collect series independently and combine at a synchronization
// point without retaining the series themselves. Relative to adding all
// series into one accumulator sequentially, the only difference is
// floating-point reassociation (partial sums per accumulator instead of one
// running sum), so for a fixed partition of runs the result is
// deterministic. An empty o is a no-op; merging into an empty a adopts o's
// grid and sums bit-for-bit. Both accumulators must agree on the sampling
// grid (same tolerance as Add). o is not modified.
func (a *Accumulator) Merge(o *Accumulator) error {
	if o.runs == 0 {
		return nil
	}
	if a.runs == 0 {
		a.times = append(a.times[:0], o.times...)
		a.sums = append(a.sums[:0], o.sums...)
		a.runs = o.runs
		return nil
	}
	if len(o.times) != len(a.times) {
		return fmt.Errorf("metrics: merging accumulator with %d samples, expected %d", len(o.times), len(a.times))
	}
	for i, t := range o.times {
		if math.Abs(t-a.times[i]) > 1e-9 {
			return fmt.Errorf("metrics: merging sample %d at time %v, expected %v", i, t, a.times[i])
		}
	}
	for i, s := range o.sums {
		a.sums[i] += s
	}
	a.runs += o.runs
	return nil
}

// Mean returns the pointwise mean of the added series. It errors if nothing
// has been added.
func (a *Accumulator) Mean() (*Series, error) {
	if a.runs == 0 {
		return nil, fmt.Errorf("metrics: no runs to average")
	}
	out := &Series{
		Times:  append([]float64(nil), a.times...),
		Values: make([]float64, len(a.sums)),
	}
	for i, s := range a.sums {
		out.Values[i] = s / float64(a.runs)
	}
	return out, nil
}

// Average combines repeated runs sampled at identical times into their
// pointwise mean, as the paper averages 10 independent runs per parameter
// combination. It returns an error if the runs disagree on sampling times.
// It is the retained-series convenience wrapper over Accumulator.
func Average(runs []*Series) (*Series, error) {
	var acc Accumulator
	for _, r := range runs {
		if err := acc.Add(r); err != nil {
			return nil, err
		}
	}
	return acc.Mean()
}
