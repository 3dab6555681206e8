package metrics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSeriesAddAndAccessors(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(1, 3)
	s.Add(2, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if tm, v := s.At(1); tm != 1 || v != 3 {
		t.Errorf("At(1) = (%v, %v)", tm, v)
	}
	if tm, v := s.Last(); tm != 2 || v != 5 {
		t.Errorf("Last = (%v, %v)", tm, v)
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Max() != 5 {
		t.Errorf("Max = %v", s.Max())
	}
	if got := s.MeanAfter(1); got != 4 {
		t.Errorf("MeanAfter(1) = %v, want 4", got)
	}
	if !math.IsNaN(s.MeanAfter(99)) {
		t.Error("MeanAfter past end should be NaN")
	}
}

func TestSeriesEmptyAccessors(t *testing.T) {
	var s Series
	if _, v := s.Last(); !math.IsNaN(v) {
		t.Error("Last of empty series should be NaN")
	}
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Max()) {
		t.Error("aggregates of empty series should be NaN")
	}
}

func TestSeriesAddOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order sample")
		}
	}()
	var s Series
	s.Add(5, 1)
	s.Add(4, 1)
}

func TestValueAt(t *testing.T) {
	var s Series
	s.Add(10, 1)
	s.Add(20, 2)
	s.Add(30, 3)
	if !math.IsNaN(s.valueAt(5)) {
		t.Error("valueAt before first sample should be NaN")
	}
	cases := []struct{ t, want float64 }{{10, 1}, {15, 1}, {20, 2}, {29.9, 2}, {30, 3}, {100, 3}}
	for _, c := range cases {
		if got := s.valueAt(c.t); got != c.want {
			t.Errorf("valueAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSmooth(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		v := 0.0
		if i%2 == 0 {
			v = 2
		}
		s.Add(float64(i), v)
	}
	sm := s.Smooth(4)
	if sm.Len() != s.Len() {
		t.Fatalf("smoothed length %d", sm.Len())
	}
	// Interior points average ~1; the oscillation must shrink.
	for i := 2; i < 8; i++ {
		if math.Abs(sm.Values[i]-1) > 0.45 {
			t.Errorf("smoothed[%d] = %v, want ≈ 1", i, sm.Values[i])
		}
	}
	// Zero window returns a copy with identical values.
	same := s.Smooth(0)
	for i := range s.Values {
		if same.Values[i] != s.Values[i] {
			t.Fatal("Smooth(0) changed values")
		}
	}
	// Smoothing an empty series is a no-op.
	empty := (&Series{}).Smooth(10)
	if empty.Len() != 0 {
		t.Error("smoothing empty series produced samples")
	}
}

func TestCloneIndependent(t *testing.T) {
	var s Series
	s.Add(1, 2)
	c := s.clone()
	c.Values[0] = 99
	if s.Values[0] != 2 {
		t.Error("Clone shares storage")
	}
}

func TestAverage(t *testing.T) {
	a := &Series{Times: []float64{0, 1, 2}, Values: []float64{1, 2, 3}}
	b := &Series{Times: []float64{0, 1, 2}, Values: []float64{3, 4, 5}}
	avg, err := Average([]*Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if avg.Values[i] != want[i] {
			t.Errorf("avg[%d] = %v, want %v", i, avg.Values[i], want[i])
		}
	}
}

// TestAverageRejectsNoRuns requires at least one run: there is no grid to
// average onto without one.
func TestAverageRejectsNoRuns(t *testing.T) {
	if _, err := Average(nil); err == nil || !strings.Contains(err.Error(), "no runs") {
		t.Errorf("no runs: err = %v", err)
	}
}

// TestAverageRejectsMismatchedGrids requires every run to share the first
// run's sampling grid: a different length or a time more than 1e-9 off is an
// error, and a time within 1e-9 is the same sample.
func TestAverageRejectsMismatchedGrids(t *testing.T) {
	a := &Series{Times: []float64{0, 1, 2}, Values: []float64{1, 2, 3}}
	short := &Series{Times: []float64{0, 1}, Values: []float64{1, 2}}
	shifted := &Series{Times: []float64{0, 1 + 2e-9, 2}, Values: []float64{1, 2, 3}}
	jittered := &Series{Times: []float64{0, 1 + 5e-10, 2}, Values: []float64{3, 4, 5}}

	t.Run("length-mismatch", func(t *testing.T) {
		if _, err := Average([]*Series{a, short}); err == nil || !strings.Contains(err.Error(), "samples") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("time-mismatch-above-1e-9", func(t *testing.T) {
		if _, err := Average([]*Series{a, shifted}); err == nil || !strings.Contains(err.Error(), "expected") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("time-mismatch-within-1e-9", func(t *testing.T) {
		avg, err := Average([]*Series{a, jittered})
		if err != nil {
			t.Fatalf("err = %v", err)
		}
		if !reflect.DeepEqual(avg.Times, a.Times) || !reflect.DeepEqual(avg.Values, []float64{2, 3, 4}) {
			t.Errorf("average = %v at %v, want [2 3 4] at the first run's times", avg.Values, avg.Times)
		}
	})
}

// TestAverageSumsInRunOrder pins the order of the additions: each sample is
// summed from zero in run order, so runs whose sum depends on the order give
// exactly the in-order result. RunParallel's bit-identity for any worker
// count rests on this.
func TestAverageSumsInRunOrder(t *testing.T) {
	run := func(v float64) *Series { return &Series{Times: []float64{0}, Values: []float64{v}} }
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{1e16, 1, -1e16}, 0},       // 1e16 + 1 rounds back to 1e16
		{[]float64{1e16, -1e16, 1}, 1.0 / 3}, // the 1 survives
		{[]float64{math.Copysign(0, -1)}, 0}, // the sum starts from +0
	} {
		runs := make([]*Series, len(tc.values))
		for i, v := range tc.values {
			runs[i] = run(v)
		}
		avg, err := Average(runs)
		if err != nil {
			t.Fatal(err)
		}
		if got := avg.Values[0]; math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("Average of %v = %v, want exactly %v", tc.values, got, tc.want)
		}
	}
}

func TestTableTSV(t *testing.T) {
	ta := NewTable("time", "value")
	s1 := &Series{Times: []float64{0, 1}, Values: []float64{10, 20}}
	s2 := &Series{Times: []float64{0, 1}, Values: []float64{30, 40}}
	ta.AddColumn("proactive", s1)
	ta.AddColumn("simple", s2)
	var buf bytes.Buffer
	if err := ta.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("output:\n%s", out)
	}
	if lines[0] != "time\tproactive\tsimple" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0\t10\t30" || lines[2] != "1\t20\t40" {
		t.Errorf("rows = %q, %q", lines[1], lines[2])
	}
}

func TestTableTSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTable("x", "y").WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "x") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestFormatFloatNaN(t *testing.T) {
	ta := NewTable("x", "y")
	s1 := &Series{Times: []float64{0, 1}, Values: []float64{1, 2}}
	s2 := &Series{Times: []float64{1}, Values: []float64{5}}
	ta.AddColumn("a", s1)
	ta.AddColumn("b", s2) // has no sample at x=0 -> nan
	var buf bytes.Buffer
	if err := ta.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nan") {
		t.Errorf("expected nan in output:\n%s", buf.String())
	}
}
