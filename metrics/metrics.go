// Package metrics provides the small time-series toolkit the experiment
// harness uses: sampled series, window smoothing (the paper smooths the push
// gossip curves over 15-minute windows), aggregation across repeated runs,
// and simple tabular output.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is a time series of (time, value) samples in non-decreasing time
// order.
type Series struct {
	Times  []float64
	Values []float64
}

// Add appends a sample. Samples must be appended in non-decreasing time
// order; out-of-order samples are rejected with a panic because they indicate
// a harness bug.
func (s *Series) Add(t, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: sample at %v added after %v", t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// At returns the i-th sample.
func (s *Series) At(i int) (t, v float64) { return s.Times[i], s.Values[i] }

// Last returns the final sample, or (0, NaN) for an empty series.
func (s *Series) Last() (t, v float64) {
	if s.Len() == 0 {
		return 0, math.NaN()
	}
	return s.Times[s.Len()-1], s.Values[s.Len()-1]
}

// Mean returns the mean of the values, or NaN for an empty series.
func (s *Series) Mean() float64 {
	if s.Len() == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(s.Len())
}

// MeanAfter returns the mean of the values sampled at or after time t0, or
// NaN if there are none. It is used to summarize the steady-state portion of
// a run.
func (s *Series) MeanAfter(t0 float64) float64 {
	sum, count := 0.0, 0
	for i, t := range s.Times {
		if t >= t0 {
			sum += s.Values[i]
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// Max returns the largest value (NaN for empty series).
func (s *Series) Max() float64 {
	if s.Len() == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// valueAt returns the value of the most recent sample at or before time t
// (step interpolation). It returns NaN if t precedes the first sample.
func (s *Series) valueAt(t float64) float64 {
	idx := sort.SearchFloat64s(s.Times, t)
	// idx is the first index with Times[idx] >= t.
	if idx < s.Len() && s.Times[idx] == t {
		return s.Values[idx]
	}
	if idx == 0 {
		return math.NaN()
	}
	return s.Values[idx-1]
}

// Smooth returns a new series in which each sample is replaced by the mean of
// all samples within a centred window of the given width, reproducing the
// paper's 15-minute smoothing of the push gossip curves. The sample times are
// preserved.
func (s *Series) Smooth(window float64) *Series {
	if window <= 0 || s.Len() == 0 {
		return s.clone()
	}
	half := window / 2
	out := &Series{Times: append([]float64(nil), s.Times...), Values: make([]float64, s.Len())}
	lo, hi := 0, 0
	for i, t := range s.Times {
		for lo < s.Len() && s.Times[lo] < t-half {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < s.Len() && s.Times[hi] <= t+half {
			hi++
		}
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += s.Values[j]
		}
		out.Values[i] = sum / float64(hi-lo)
	}
	return out
}

// clone returns a deep copy of the series.
func (s *Series) clone() *Series {
	return &Series{
		Times:  append([]float64(nil), s.Times...),
		Values: append([]float64(nil), s.Values...),
	}
}

// Average combines repeated runs sampled at identical times into their
// pointwise mean, as the paper averages 10 independent runs per parameter
// combination. Each sample's sum is accumulated in run order, starting from
// zero, so the mean is a pure function of the runs and their order: callers
// that gather runs in repetition order get bit-identical means however the
// runs were produced. It returns an error if there are no runs or if a run's
// sampling times differ from the first run's by more than 1e-9.
func Average(runs []*Series) (*Series, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("metrics: no runs to average")
	}
	times := runs[0].Times
	sums := make([]float64, len(times))
	for _, r := range runs {
		if r.Len() != len(times) {
			return nil, fmt.Errorf("metrics: run has %d samples, expected %d", r.Len(), len(times))
		}
		for i, t := range r.Times {
			if math.Abs(t-times[i]) > 1e-9 {
				return nil, fmt.Errorf("metrics: sample %d at time %v, expected %v", i, t, times[i])
			}
		}
		for i, v := range r.Values {
			sums[i] += v
		}
	}
	for i := range sums {
		sums[i] /= float64(len(runs))
	}
	return &Series{Times: append([]float64(nil), times...), Values: sums}, nil
}

// Table is a named collection of series sharing a sampling grid, used to
// print one paper figure (several curves over the same x axis).
type Table struct {
	// XLabel and YLabel describe the axes.
	XLabel, YLabel string
	columns        []string
	series         []*Series
}

// NewTable returns an empty table with the given axis labels.
func NewTable(xLabel, yLabel string) *Table {
	return &Table{XLabel: xLabel, YLabel: yLabel}
}

// AddColumn appends a named curve to the table.
func (t *Table) AddColumn(name string, s *Series) {
	t.columns = append(t.columns, name)
	t.series = append(t.series, s)
}

// WriteTSV writes the table as tab-separated values: a header line followed
// by one line per sample time of the first column. Curves sampled on a
// different grid are resampled with step interpolation.
func (t *Table) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := append([]string{t.XLabel}, t.columns...)
	if _, err := fmt.Fprintln(bw, strings.Join(header, "\t")); err != nil {
		return err
	}
	if len(t.series) == 0 {
		return bw.Flush()
	}
	base := t.series[0]
	for i := 0; i < base.Len(); i++ {
		x, _ := base.At(i)
		row := make([]string, 0, len(t.series)+1)
		row = append(row, formatFloat(x))
		for _, s := range t.series {
			row = append(row, formatFloat(s.valueAt(x)))
		}
		if _, err := fmt.Fprintln(bw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "nan"
	}
	return fmt.Sprintf("%g", v)
}
