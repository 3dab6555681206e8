package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSegmentOnline(t *testing.T) {
	s := Segment{Intervals: []Interval{{10, 20}, {30, 40}}}
	tests := []struct {
		t    float64
		want bool
	}{
		{0, false}, {10, true}, {15, true}, {20, false}, {25, false},
		{30, true}, {39.9, true}, {40, false}, {100, false},
	}
	for _, tc := range tests {
		if got := s.online(tc.t); got != tc.want {
			t.Errorf("Online(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if !s.everOnlineBy(10) || s.everOnlineBy(9) {
		t.Error("everOnlineBy wrong")
	}
}

func TestSegmentNormalize(t *testing.T) {
	s := Segment{Intervals: []Interval{{30, 25}, {5, 15}, {-10, 3}, {10, 20}, {50, 200}}}
	s.normalize(100)
	want := []Interval{{0, 3}, {5, 20}, {50, 100}}
	if len(s.Intervals) != len(want) {
		t.Fatalf("normalize produced %v, want %v", s.Intervals, want)
	}
	for i := range want {
		if s.Intervals[i] != want[i] {
			t.Fatalf("normalize produced %v, want %v", s.Intervals, want)
		}
	}
}

func TestAlwaysOnline(t *testing.T) {
	tr := AlwaysOnline(10, 100)
	if tr.N() != 10 {
		t.Fatalf("N = %d", tr.N())
	}
	for i := 0; i < 10; i++ {
		if !tr.Online(i, 0) || !tr.Online(i, 99.9) {
			t.Errorf("node %d should always be online", i)
		}
	}
	if tr.Online(-1, 5) || tr.Online(10, 5) {
		t.Error("out-of-range nodes should be offline")
	}
	if tr.PermanentlyOfflineFraction() != 0 {
		t.Error("always-online trace has offline nodes")
	}
}

func TestStats(t *testing.T) {
	tr := &Trace{Duration: 40, Segments: []Segment{
		{Intervals: []Interval{{0, 20}}},
		{Intervals: []Interval{{10, 30}}},
		{}, // never online
		{Intervals: []Interval{{35, 40}}},
	}}
	bins, err := tr.Stats(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("got %d bins, want 4", len(bins))
	}
	// t=0: node 0 online. t=10: nodes 0,1. t=20: node 1. t=30: none.
	wantOnline := []float64{0.25, 0.5, 0.25, 0}
	for i, w := range wantOnline {
		if bins[i].OnlineFrac != w {
			t.Errorf("bin %d OnlineFrac = %v, want %v", i, bins[i].OnlineFrac, w)
		}
	}
	// Ever online at bin starts: t=0: {0}; t=10: {0,1}; t=20: {0,1}; t=30: {0,1}.
	wantEver := []float64{0.25, 0.5, 0.5, 0.5}
	for i, w := range wantEver {
		if bins[i].EverOnlineFrac != w {
			t.Errorf("bin %d EverOnlineFrac = %v, want %v", i, bins[i].EverOnlineFrac, w)
		}
	}
	// Logins: t=0 (bin 0), t=10 (bin 1), t=35 (bin 3). Logouts: 20 (bin 2), 30 (bin 3), 40 (outside).
	if bins[0].LoginFrac != 0.25 || bins[1].LoginFrac != 0.25 || bins[3].LoginFrac != 0.25 {
		t.Errorf("login fractions wrong: %+v", bins)
	}
	if bins[2].LogoutFrac != 0.25 || bins[3].LogoutFrac != 0.25 {
		t.Errorf("logout fractions wrong: %+v", bins)
	}
	if _, err := tr.Stats(0); err == nil {
		t.Error("Stats(0) accepted")
	}
	if _, err := (&Trace{}).Stats(10); err == nil {
		t.Error("Stats on empty trace accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := &Trace{Duration: 100, Segments: []Segment{
		{Intervals: []Interval{{0, 10}, {50, 60}}},
		{},
		{Intervals: []Interval{{25, 75}}},
	}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if back.Duration != 100 {
		t.Errorf("Duration = %v, want 100", back.Duration)
	}
	for i := range tr.Segments {
		a, b := tr.Segments[i].Intervals, back.Segments[i].Intervals
		if len(a) != len(b) {
			t.Fatalf("node %d intervals %v != %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("node %d intervals %v != %v", i, a, b)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"node,start,end\n0,abc,10\n",
		"0,1\n",
		"5,0,10\n",
		"-1,0,10\n",
		"0,0,x\n",
		"x,0,10\n",
		"# duration=zzz\n",
		"0,10,10\n",                 // empty interval: end == start
		"0,10,5\n",                  // inverted interval: end < start
		"0,-3,10\n",                 // negative start
		"0,0,Inf\n",                 // non-finite end
		"# duration=50\n0,10,60\n",  // extends past the declared duration
		"0,10,60\n# duration=50\n",  // same, duration declared after the data
		"# duration=50\n0,NaN,10\n", // NaN start
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), 3); err == nil {
			t.Errorf("ReadCSV accepted %q", c)
		}
	}
}

// TestReadCSVErrorLineNumbers checks that malformed intervals are reported
// with the line they occur on, including when the duration header only
// appears after the offending line.
func TestReadCSVErrorLineNumbers(t *testing.T) {
	cases := map[string]string{
		"# duration=100\n0,0,10\n1,30,20\n":  "line 3",
		"# duration=100\n0,0,10\n0,50,200\n": "line 3",
		"0,0,10\n0,50,200\n# duration=100\n": "line 2",
		"node,start,end\n0,-1,10\n":          "line 2",
	}
	for in, want := range cases {
		_, err := ReadCSV(strings.NewReader(in), 3)
		if err == nil {
			t.Errorf("ReadCSV accepted %q", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ReadCSV(%q) error %q does not name %s", in, err, want)
		}
	}
}

func TestReadCSVInfersDuration(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader("0,5,80\n1,10,20\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration != 80 {
		t.Errorf("inferred duration = %v, want 80", tr.Duration)
	}
}

func TestSmartphoneConfigValidation(t *testing.T) {
	bad := []SmartphoneConfig{
		{Users: 0, Duration: Day},
		{Users: 10, Duration: 0},
		{Users: 10, Duration: math.NaN()},
		{Users: 10, Duration: math.Inf(1)},
		{Users: 10, Duration: Day, PermanentlyOffline: 1.5},
		{Users: 10, Duration: Day, PermanentlyOffline: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := Smartphone(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSmartphoneAggregateShape(t *testing.T) {
	cfg := DefaultSmartphoneConfig(2000, 42)
	tr, err := Smartphone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 2000 {
		t.Fatalf("N = %d", tr.N())
	}
	// Roughly 30% permanently offline (±5%).
	off := tr.PermanentlyOfflineFraction()
	if off < 0.25 || off > 0.35 {
		t.Errorf("permanently offline fraction = %v, want ≈ 0.30", off)
	}
	bins, err := tr.Stats(Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 48 {
		t.Fatalf("got %d hourly bins, want 48", len(bins))
	}
	// Diurnal pattern: nights (02:00) should have clearly more users online
	// than afternoons (15:00), on both days.
	night := (bins[2].OnlineFrac + bins[26].OnlineFrac) / 2
	day := (bins[15].OnlineFrac + bins[39].OnlineFrac) / 2
	if night <= day {
		t.Errorf("no diurnal pattern: night online %v <= day online %v", night, day)
	}
	if night < 0.3 || night > 0.9 {
		t.Errorf("night online fraction = %v, outside plausible range", night)
	}
	// The fraction that has been online must be monotone and end well below 1
	// (the permanently offline users) but above the instantaneous online
	// fraction.
	last := bins[len(bins)-1]
	if last.EverOnlineFrac < 0.6 || last.EverOnlineFrac > 0.76 {
		t.Errorf("final ever-online fraction = %v, want ≈ 0.70", last.EverOnlineFrac)
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].EverOnlineFrac+1e-9 < bins[i-1].EverOnlineFrac {
			t.Fatalf("ever-online fraction decreased at bin %d", i)
		}
	}
	// Some churn must be visible.
	totalLogins := 0.0
	for _, b := range bins {
		totalLogins += b.LoginFrac
	}
	if totalLogins < 0.5 {
		t.Errorf("total login activity %v seems too low", totalLogins)
	}
}

func TestSmartphoneDeterministic(t *testing.T) {
	a, err := Smartphone(DefaultSmartphoneConfig(200, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Smartphone(DefaultSmartphoneConfig(200, 7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Smartphone(DefaultSmartphoneConfig(200, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(a, b) {
		t.Error("same seed produced different traces")
	}
	if tracesEqual(a, c) {
		t.Error("different seeds produced identical traces")
	}
}

func tracesEqual(a, b *Trace) bool {
	if a.N() != b.N() || a.Duration != b.Duration {
		return false
	}
	for i := range a.Segments {
		x, y := a.Segments[i].Intervals, b.Segments[i].Intervals
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if x[j] != y[j] {
				return false
			}
		}
	}
	return true
}

func TestQuickNormalizedSegmentsAreSortedAndDisjoint(t *testing.T) {
	f := func(raw []float64) bool {
		var s Segment
		for i := 0; i+1 < len(raw); i += 2 {
			s.Intervals = append(s.Intervals, Interval{Start: raw[i], End: raw[i+1]})
		}
		s.normalize(1000)
		for i, iv := range s.Intervals {
			if iv.Start < 0 || iv.End > 1000 || iv.End <= iv.Start {
				return false
			}
			if i > 0 && iv.Start <= s.Intervals[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
