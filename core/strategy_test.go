package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPurelyProactive(t *testing.T) {
	var s PurelyProactive
	for _, a := range []int{0, 1, 5, 100} {
		if got := s.Proactive(a); got != 1 {
			t.Errorf("Proactive(%d) = %v, want 1", a, got)
		}
		if got := s.Reactive(a, true); got != 0 {
			t.Errorf("Reactive(%d, true) = %v, want 0", a, got)
		}
		if got := s.Reactive(a, false); got != 0 {
			t.Errorf("Reactive(%d, false) = %v, want 0", a, got)
		}
	}
	if s.Capacity() != 0 {
		t.Errorf("Capacity() = %d, want 0", s.Capacity())
	}
	if s.Name() != "proactive" {
		t.Errorf("Name() = %q", s.Name())
	}
}

func TestNewSimpleValidation(t *testing.T) {
	if _, err := NewSimple(-1); !errors.Is(err, ErrNegativeCapacity) {
		t.Errorf("NewSimple(-1) error = %v, want ErrNegativeCapacity", err)
	}
	if _, err := NewSimple(0); err != nil {
		t.Errorf("NewSimple(0) error = %v, want nil", err)
	}
	if _, err := NewSimple(10); err != nil {
		t.Errorf("NewSimple(10) error = %v, want nil", err)
	}
}

func TestSimpleValues(t *testing.T) {
	s := MustSimple(5)
	tests := []struct {
		a             int
		wantProactive float64
		wantReactive  float64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{4, 0, 1},
		{5, 1, 1},
		{6, 1, 1},
	}
	for _, tc := range tests {
		if got := s.Proactive(tc.a); got != tc.wantProactive {
			t.Errorf("Proactive(%d) = %v, want %v", tc.a, got, tc.wantProactive)
		}
		if got := s.Reactive(tc.a, true); got != tc.wantReactive {
			t.Errorf("Reactive(%d, true) = %v, want %v", tc.a, got, tc.wantReactive)
		}
		// Simple ignores usefulness.
		if got := s.Reactive(tc.a, false); got != tc.wantReactive {
			t.Errorf("Reactive(%d, false) = %v, want %v", tc.a, got, tc.wantReactive)
		}
	}
	if s.Capacity() != 5 {
		t.Errorf("Capacity() = %d, want 5", s.Capacity())
	}
}

func TestSimpleZeroCapacityIsPurelyProactive(t *testing.T) {
	s := MustSimple(0)
	var p PurelyProactive
	for a := 0; a <= 3; a++ {
		if s.Proactive(a) != p.Proactive(a) {
			t.Errorf("Proactive(%d): simple(C=0) = %v, proactive = %v", a, s.Proactive(a), p.Proactive(a))
		}
	}
	// With C = 0 the balance never becomes positive in practice, so the
	// reactive function is never exercised with a > 0; at a = 0 both are 0.
	if s.Reactive(0, true) != 0 {
		t.Errorf("simple(C=0).Reactive(0,true) = %v, want 0", s.Reactive(0, true))
	}
}

func TestNewGeneralizedValidation(t *testing.T) {
	if _, err := NewGeneralized(0, 5); !errors.Is(err, ErrNonPositiveA) {
		t.Errorf("NewGeneralized(0,5) error = %v, want ErrNonPositiveA", err)
	}
	if _, err := NewGeneralized(6, 5); !errors.Is(err, ErrCapacityBelowA) {
		t.Errorf("NewGeneralized(6,5) error = %v, want ErrCapacityBelowA", err)
	}
	if _, err := NewGeneralized(5, 5); err != nil {
		t.Errorf("NewGeneralized(5,5) error = %v, want nil", err)
	}
}

func TestGeneralizedReactiveValues(t *testing.T) {
	// Eq. (3) with floors, spot-checked by hand.
	g := MustGeneralized(5, 20)
	tests := []struct {
		a      int
		useful bool
		want   float64
	}{
		{0, true, 0},
		{1, true, 1},  // floor((5-1+1)/5) = 1
		{5, true, 1},  // floor(9/5) = 1
		{6, true, 2},  // floor(10/5) = 2
		{20, true, 4}, // floor(24/5) = 4
		{1, false, 0}, // floor(5/10) = 0
		{5, false, 0}, // floor(9/10) = 0
		{6, false, 1}, // floor(10/10) = 1
		{20, false, 2},
	}
	for _, tc := range tests {
		if got := g.Reactive(tc.a, tc.useful); got != tc.want {
			t.Errorf("Reactive(%d, %v) = %v, want %v", tc.a, tc.useful, got, tc.want)
		}
	}
}

func TestGeneralizedAEquals1SpendsEverything(t *testing.T) {
	g := MustGeneralized(1, 10)
	for a := 0; a <= 10; a++ {
		if got := g.Reactive(a, true); got != float64(a) {
			t.Errorf("A=1: Reactive(%d, true) = %v, want %v", a, got, a)
		}
	}
}

func TestGeneralizedAEqualsCMatchesSimple(t *testing.T) {
	// The paper notes that A = C makes the (useful) reactive function
	// equivalent to the simple strategy's.
	g := MustGeneralized(10, 10)
	s := MustSimple(10)
	for a := 0; a <= 10; a++ {
		if g.Reactive(a, true) != s.Reactive(a, true) {
			t.Errorf("a=%d: generalized(A=C) = %v, simple = %v", a, g.Reactive(a, true), s.Reactive(a, true))
		}
		if g.Proactive(a) != s.Proactive(a) {
			t.Errorf("a=%d: proactive mismatch", a)
		}
	}
	// For useless messages the two differ: floor((C−1+a)/(2C)) is 0 for
	// every balance up to C, where the simple strategy answers every message
	// while it has a token.
	for a := 1; a <= 10; a++ {
		if got, simple := g.Reactive(a, false), s.Reactive(a, false); got != 0 || simple != 1 {
			t.Errorf("a=%d, useless: generalized(A=C) = %v, simple = %v, want 0 and 1", a, got, simple)
		}
	}
}

func TestRandomizedProactiveValues(t *testing.T) {
	r := MustRandomized(5, 10)
	tests := []struct {
		a    int
		want float64
	}{
		{0, 0},
		{3, 0},
		{4, 0},          // a < A-1 = 4? no: a = A-1 is start of ramp => (4-4)/(10-4) = 0
		{7, 3.0 / 6.0},  // (7-4)/(6)
		{10, 6.0 / 6.0}, // full
		{11, 1},         // above C
		{5, 1.0 / 6.0},  // (5-4)/6
	}
	for _, tc := range tests {
		if got := r.Proactive(tc.a); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Proactive(%d) = %v, want %v", tc.a, got, tc.want)
		}
	}
}

func TestRandomizedReactiveValues(t *testing.T) {
	r := MustRandomized(4, 8)
	if got := r.Reactive(6, true); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Reactive(6, true) = %v, want 1.5", got)
	}
	if got := r.Reactive(6, false); got != 0 {
		t.Errorf("Reactive(6, false) = %v, want 0", got)
	}
	if got := r.Reactive(0, true); got != 0 {
		t.Errorf("Reactive(0, true) = %v, want 0", got)
	}
}

func TestRandomizedDegenerateRamp(t *testing.T) {
	// A == C: the ramp collapses to the single point a = C where the account
	// is full, so the probability must be 1 there and 0 just below.
	r := MustRandomized(5, 5)
	if got := r.Proactive(5); got != 1 {
		t.Errorf("Proactive(5) = %v, want 1", got)
	}
	if got := r.Proactive(4); got != 0 {
		t.Errorf("Proactive(4) = %v, want 0", got)
	}
}

func TestPureReactive(t *testing.T) {
	if _, err := NewPureReactive(0, false); !errors.Is(err, ErrNonPositiveFanout) {
		t.Errorf("NewPureReactive(0) error = %v, want ErrNonPositiveFanout", err)
	}
	r := MustPureReactive(3, false)
	if got := r.Reactive(0, false); got != 3 {
		t.Errorf("Reactive(0,false) = %v, want 3", got)
	}
	if got := r.Proactive(100); got != 0 {
		t.Errorf("Proactive(100) = %v, want 0", got)
	}
	if r.Capacity() != UnboundedCapacity {
		t.Errorf("Capacity() = %d, want UnboundedCapacity", r.Capacity())
	}
	u := MustPureReactive(2, true)
	if got := u.Reactive(5, false); got != 0 {
		t.Errorf("useful-only Reactive(5,false) = %v, want 0", got)
	}
	if got := u.Reactive(5, true); got != 2 {
		t.Errorf("useful-only Reactive(5,true) = %v, want 2", got)
	}
	if !AllowsOverspend(r) {
		t.Error("AllowsOverspend(PureReactive) = false, want true")
	}
	if AllowsOverspend(MustSimple(3)) {
		t.Error("AllowsOverspend(Simple) = true, want false")
	}
}

func TestStrategyNames(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{MustSimple(7), "simple(C=7)"},
		{MustGeneralized(2, 9), "generalized(A=2,C=9)"},
		{MustRandomized(3, 6), "randomized(A=3,C=6)"},
		{MustPureReactive(1, false), "reactive(k=1)"},
		{MustPureReactive(1, true), "reactive(k=1,useful-only)"},
	}
	for _, tc := range tests {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// boundedStrategies returns a representative set of bounded strategies used
// by the property tests below.
func boundedStrategies() []Strategy {
	return []Strategy{
		PurelyProactive{},
		MustSimple(0), MustSimple(1), MustSimple(20), MustSimple(100),
		MustGeneralized(1, 1), MustGeneralized(1, 10), MustGeneralized(5, 10),
		MustGeneralized(10, 10), MustGeneralized(10, 90), MustGeneralized(40, 120),
		MustRandomized(1, 1), MustRandomized(1, 10), MustRandomized(5, 10),
		MustRandomized(10, 20), MustRandomized(20, 100), MustRandomized(40, 40),
	}
}

func TestPropertyProactiveRangeAndMonotone(t *testing.T) {
	for _, s := range boundedStrategies() {
		prev := -1.0
		for a := 0; a <= s.Capacity()+10; a++ {
			p := s.Proactive(a)
			if p < 0 || p > 1 {
				t.Fatalf("%s: Proactive(%d) = %v out of [0,1]", s.Name(), a, p)
			}
			if p < prev {
				t.Fatalf("%s: Proactive not monotone at a=%d (%v < %v)", s.Name(), a, p, prev)
			}
			prev = p
		}
		if got := s.Proactive(s.Capacity()); got != 1 {
			t.Errorf("%s: Proactive(C) = %v, want 1", s.Name(), got)
		}
	}
}

func TestPropertyReactiveConstraints(t *testing.T) {
	for _, s := range boundedStrategies() {
		prevUseful, prevUseless := -1.0, -1.0
		for a := 0; a <= s.Capacity()+10; a++ {
			ru := s.Reactive(a, true)
			rn := s.Reactive(a, false)
			if ru < 0 || rn < 0 {
				t.Fatalf("%s: negative reactive value at a=%d", s.Name(), a)
			}
			if rn > ru {
				t.Fatalf("%s: Reactive(%d,false)=%v > Reactive(%d,true)=%v", s.Name(), a, rn, a, ru)
			}
			if ru > float64(a)+1e-12 {
				t.Fatalf("%s: Reactive(%d,true)=%v exceeds balance", s.Name(), a, ru)
			}
			if ru < prevUseful-1e-12 || rn < prevUseless-1e-12 {
				t.Fatalf("%s: reactive not monotone in a at a=%d", s.Name(), a)
			}
			prevUseful, prevUseless = ru, rn
		}
	}
}

func TestQuickGeneralizedInvariants(t *testing.T) {
	f := func(aParam, cExtra, balance uint8, useful bool) bool {
		a := int(aParam%40) + 1
		c := a + int(cExtra%80)
		bal := int(balance) % (c + 5)
		g := MustGeneralized(a, c)
		r := g.Reactive(bal, useful)
		return r >= 0 && r <= float64(bal) && r == math.Trunc(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRandomizedInvariants(t *testing.T) {
	f := func(aParam, cExtra, balance uint8) bool {
		a := int(aParam%40) + 1
		c := a + int(cExtra%80)
		bal := int(balance) % (c + 5)
		r := MustRandomized(a, c)
		p := r.Proactive(bal)
		ru := r.Reactive(bal, true)
		return p >= 0 && p <= 1 && ru >= 0 && ru <= float64(bal)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCapacityIsSmallestFullBalance(t *testing.T) {
	// C must be the smallest a with Proactive(a) == 1 (§3.4 definition).
	for _, s := range boundedStrategies() {
		c := s.Capacity()
		if s.Proactive(c) != 1 {
			t.Errorf("%s: Proactive(C=%d) != 1", s.Name(), c)
		}
		if c > 0 && s.Proactive(c-1) == 1 {
			// The randomized strategy with a degenerate ramp can return 1
			// only at C; all published strategies satisfy this.
			t.Errorf("%s: Proactive(C-1=%d) == 1, capacity not minimal", s.Name(), c-1)
		}
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("MustSimple(-1)", func() { MustSimple(-1) })
	assertPanics("MustGeneralized(0,1)", func() { MustGeneralized(0, 1) })
	assertPanics("MustRandomized(5,2)", func() { MustRandomized(5, 2) })
	assertPanics("MustPureReactive(0,false)", func() { MustPureReactive(0, false) })
}

func TestErrorMessagesMentionParameters(t *testing.T) {
	_, err := NewGeneralized(9, 3)
	if err == nil || !strings.Contains(err.Error(), "A=9") || !strings.Contains(err.Error(), "C=3") {
		t.Errorf("error %v should mention offending parameters", err)
	}
}
