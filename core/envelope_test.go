package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestEnvelopeBound(t *testing.T) {
	e := NewEnvelope(10, 3)
	tests := []struct {
		window float64
		want   int
	}{
		{0, 4},    // floor(0)+1+3
		{5, 4},    // floor(0.5)+1+3
		{10, 5},   // floor(1)+1+3
		{10.1, 5}, // floor(1.01)+1+3
		{25, 6},   // floor(2.5)+1+3
		{-1, 4},
	}
	for _, tc := range tests {
		if got := e.bound(tc.window); got != tc.want {
			t.Errorf("Bound(%v) = %d, want %d", tc.window, got, tc.want)
		}
	}
}

func TestEnvelopeVerifyCompliant(t *testing.T) {
	// One message per period plus an initial burst of C: compliant.
	e := NewEnvelope(1.0, 2)
	e.Record(0)
	e.Record(0)
	for i := 1; i <= 20; i++ {
		e.Record(float64(i))
	}
	if v := e.Verify(); v != nil {
		t.Errorf("Verify() = %v, want nil", v)
	}
	if e.count != 22 {
		t.Errorf("count = %d, want 22", e.count)
	}
}

func TestEnvelopeVerifyViolation(t *testing.T) {
	e := NewEnvelope(1.0, 1)
	// Four messages within a tiny window: bound is ceil(t)+1 = 2.
	for _, ts := range []float64{5.0, 5.01, 5.02, 5.03} {
		e.Record(ts)
	}
	v := e.Verify()
	if v == nil {
		t.Fatal("Verify() = nil, want violation")
	}
	if v.Sent <= v.Allowed {
		t.Errorf("violation has Sent=%d Allowed=%d", v.Sent, v.Allowed)
	}
	if v.Error() == "" {
		t.Error("violation Error() is empty")
	}
}

func TestEnvelopeConstructorPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("zero delta", func() { NewEnvelope(0, 1) })
	assertPanics("negative capacity", func() { NewEnvelope(1, -1) })
}

// TestEnvelopeTokenAccountSimulation simulates a single node driven by a
// bounded strategy and verifies the §3.4 bound holds for the generated send
// times. This is the rate-limiting property test at the level of the
// strategy + account pair, independent of the full protocol stack.
func TestEnvelopeTokenAccountSimulation(t *testing.T) {
	strategies := []Strategy{
		MustSimple(10),
		MustGeneralized(5, 10),
		MustGeneralized(1, 20),
		MustRandomized(5, 10),
		MustRandomized(1, 40),
	}
	const delta = 1.0
	for _, s := range strategies {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			acct := MakeAccount(0, false)
			env := NewEnvelope(delta, s.Capacity())
			now := 0.0
			for round := 0; round < 500; round++ {
				now = float64(round) * delta
				// Proactive step of Algorithm 4.
				if Bernoulli(s.Proactive(acct.Balance()), rng) {
					env.Record(now)
				} else {
					acct.Deposit(1)
				}
				// A random number of incoming messages this round, in arrival
				// order, each triggering the reactive step.
				arrivals := make([]float64, rng.Intn(4))
				for k := range arrivals {
					arrivals[k] = now + rng.Float64()*delta
				}
				sort.Float64s(arrivals)
				for _, at := range arrivals {
					useful := rng.Intn(2) == 0
					x := RandRound(s.Reactive(acct.Balance(), useful), rng)
					x = acct.SpendUpTo(x)
					for i := 0; i < x; i++ {
						env.Record(at)
					}
				}
				if acct.Balance() > s.Capacity() {
					t.Fatalf("balance %d exceeds capacity %d", acct.Balance(), s.Capacity())
				}
			}
			if v := env.Verify(); v != nil {
				t.Errorf("rate limit violated: %v", v)
			}
		})
	}
}

// verifyPairwise is the reference the incremental envelope is checked
// against: the definition itself, every window delimited by two sends. It
// also reports whether some window is so close to a multiple of Δ that the
// verdict would hang on floating-point rounding (see the Envelope tie rule).
func verifyPairwise(delta float64, capacity int, sends []float64) (v *Violation, degenerate bool) {
	e := NewEnvelope(delta, capacity)
	sends = append([]float64(nil), sends...)
	sort.Float64s(sends)
	for i := range sends {
		for j := i; j < len(sends); j++ {
			window := sends[j] - sends[i]
			if j > i {
				if q := window / delta; math.Abs(q-math.Round(q)) < 1e-6 {
					degenerate = true
				}
			}
			sent := j - i + 1
			if allowed := e.bound(window); sent > allowed && v == nil {
				v = &Violation{Start: sends[i], End: sends[j], Sent: sent, Allowed: allowed}
			}
		}
	}
	return v, degenerate
}

// TestEnvelopeMatchesPairwiseScan drives random send sequences — sparse,
// bursty, and right at the limit rate — through the incremental envelope and
// the pairwise definition. On sequences with no window near a multiple of Δ
// the two must agree on compliance, and a reported window must really be
// over-full.
func TestEnvelopeMatchesPairwiseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	compared, violating := 0, 0
	for trial := 0; trial < 3000; trial++ {
		delta := []float64{0.01, 1, 172.8}[rng.Intn(3)]
		capacity := rng.Intn(6)
		meanGap := delta * []float64{0.3, 0.9, 1.1, 3}[rng.Intn(4)]
		n := 1 + rng.Intn(120)
		sends := make([]float64, n)
		now := rng.Float64() * 1000 * delta
		for i := range sends {
			now += rng.ExpFloat64() * meanGap
			sends[i] = now
		}
		want, degenerate := verifyPairwise(delta, capacity, sends)
		if degenerate {
			continue
		}
		e := NewEnvelope(delta, capacity)
		for _, s := range sends {
			e.Record(s)
		}
		got := e.Verify()
		compared++
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d (Δ=%v C=%d n=%d): incremental %v, pairwise %v", trial, delta, capacity, n, got, want)
		}
		if got == nil {
			continue
		}
		violating++
		inWindow := 0
		for _, s := range sends {
			if s >= got.Start && s <= got.End {
				inWindow++
			}
		}
		if inWindow != got.Sent || got.Sent <= got.Allowed || got.Allowed != e.bound(got.End-got.Start) {
			t.Fatalf("trial %d: reported %+v, but the window holds %d sends and allows %d",
				trial, got, inWindow, e.bound(got.End-got.Start))
		}
	}
	if compared < 2000 || violating < 200 || compared-violating < 200 {
		t.Fatalf("weak comparison: %d trials compared, %d violating", compared, violating)
	}
}

// TestEnvelopeTieRule pins the documented tie rule: windows within rounding
// error of k·Δ hold k+1+C sends, whichever way the float division rounds.
func TestEnvelopeTieRule(t *testing.T) {
	accumulate := func(start, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = start
			start += step // repeated addition, as the simulator's tick grid
		}
		return out
	}
	tests := []struct {
		name     string
		delta    float64
		capacity int
		sends    []float64
		violates bool
	}{
		{"literal multiples", 0.01, 0, []float64{0, 0.01, 0.02, 0.03}, false},
		{"accumulated grid, gaps a few ulps off Δ", 0.1, 0, accumulate(0.7, 0.1, 1000), false},
		{"accumulated grid on the paper's Δ", 172.8, 0, accumulate(31.4, 172.8, 1000), false},
		{"burst of C+1, then the grid", 0.1, 2, append([]float64{0.7, 0.7, 0.7}, accumulate(0.8, 0.1, 500)...), false},
		{"one send a thousandth of Δ early", 0.1, 0, []float64{0, 0.1, 0.1999}, true},
		{"burst of C+2", 0.1, 2, []float64{5, 5, 5, 5}, true},
		{"grid, then one extra send", 0.01, 0, []float64{0, 0.01, 0.02, 0.02}, true},
	}
	for _, tc := range tests {
		e := NewEnvelope(tc.delta, tc.capacity)
		for _, s := range tc.sends {
			e.Record(s)
		}
		if v := e.Verify(); (v != nil) != tc.violates {
			t.Errorf("%s: Verify() = %v, want violation = %v", tc.name, v, tc.violates)
		}
	}
}

// TestEnvelopeFirstViolationIsKept checks that Verify keeps reporting the
// first over-full window however the trace continues.
func TestEnvelopeFirstViolationIsKept(t *testing.T) {
	e := NewEnvelope(1, 1)
	for _, s := range []float64{3, 3, 3.5} {
		e.Record(s)
	}
	first := e.Verify()
	if first == nil || first.Start != 3 || first.End != 3.5 || first.Sent != 3 || first.Allowed != 2 {
		t.Fatalf("Verify() = %+v, want 3 sends in [3, 3.5], 2 allowed", first)
	}
	for s := 100.0; s < 200; s++ {
		e.Record(s)
		e.Record(s)
		e.Record(s)
	}
	if got := e.Verify(); got != first {
		t.Errorf("Verify() moved from %+v to %+v", first, got)
	}
}

// TestEnvelopeOutOfOrderTime pins the documented handling of a decreasing
// time: it counts as a send at the latest time seen.
func TestEnvelopeOutOfOrderTime(t *testing.T) {
	e := NewEnvelope(1, 0)
	e.Record(10)
	e.Record(9) // as if at 10: two sends in a zero-length window
	if v := e.Verify(); v == nil || v.Start != 10 || v.End != 10 || v.Sent != 2 {
		t.Errorf("Verify() = %+v, want 2 sends in [10, 10]", v)
	}
}

// TestEnvelopeConstantSize is the always-on audit's memory guarantee: the
// envelope holds no slice or map, so a million sends that allocate nothing
// leave its size unchanged.
func TestEnvelopeConstantSize(t *testing.T) {
	e := NewEnvelope(1, 3)
	now := 0.0
	allocs := testing.AllocsPerRun(1_000_000, func() {
		now += 1.25
		e.Record(now)
	})
	if allocs != 0 {
		t.Errorf("Record allocates %v times per call", allocs)
	}
	if e.count < 1_000_000 {
		t.Fatalf("count = %d", e.count)
	}
	if v := e.Verify(); v != nil {
		t.Errorf("Verify() = %v on a compliant trace", v)
	}
}
