package meanfield

import (
	"math"
	"slices"
	"testing"
)

func TestPredictedRandomizedBalance(t *testing.T) {
	if got := PredictedRandomizedBalance(5, 10); math.Abs(got-50.0/11) > 1e-12 {
		t.Errorf("PredictedRandomizedBalance(5,10) = %v, want %v", got, 50.0/11)
	}
	if got := PredictedRandomizedBalance(10, 20); math.Abs(got-200.0/21) > 1e-12 {
		t.Errorf("PredictedRandomizedBalance(10,20) = %v", got)
	}
}

func TestEquilibriumRandomizedMatchesClosedForm(t *testing.T) {
	cases := []struct{ a, c int }{{5, 10}, {1, 10}, {10, 20}, {2, 5}, {20, 40}}
	for _, tc := range cases {
		m := Randomized(tc.a, tc.c)
		got, err := Equilibrium(m)
		if err != nil {
			t.Fatalf("Equilibrium(%s): %v", m.Name, err)
		}
		want := PredictedRandomizedBalance(tc.a, tc.c)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: equilibrium = %v, want %v", m.Name, got, want)
		}
	}
}

func TestEquilibriumGeneralized(t *testing.T) {
	// reactive(a) = (A-1+a)/A = 1 at a = 1 (continuous model, proactive = 0
	// below C), so the equilibrium balance is 1 for any A > 1, C > 1.
	m := Generalized(5, 10)
	got, err := Equilibrium(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-6 {
		t.Errorf("equilibrium = %v, want 1", got)
	}
}

func TestEquilibriumSimple(t *testing.T) {
	// The simple strategy's reactive function is the step 1{a>0}, so any
	// positive balance satisfies eq. (10); bisection returns some root and it
	// must satisfy the equation.
	m := Simple(10)
	got, err := Equilibrium(m)
	if err != nil {
		t.Fatal(err)
	}
	if sum := m.Reactive(got) + m.Proactive(got); math.Abs(sum-1) > 1e-6 {
		t.Errorf("equilibrium %v does not satisfy eq.(10): %v", got, sum)
	}
}

func TestEquilibriumDegenerateCapacity(t *testing.T) {
	if got, err := Equilibrium(Simple(0)); err != nil || got != 0 {
		t.Errorf("Equilibrium(Simple(0)) = %v, %v", got, err)
	}
}

func TestSimulateConvergesToEquilibrium(t *testing.T) {
	m := Randomized(5, 10)
	delta := 172.8
	tr, err := Simulate(m, delta, 0, 1/delta, 1.0, 400*delta)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Balance.Len() == 0 || tr.Rate.Len() == 0 {
		t.Fatal("empty trajectory")
	}
	_, finalBalance := tr.Balance.Last()
	want := PredictedRandomizedBalance(5, 10)
	if math.Abs(finalBalance-want) > 0.5 {
		t.Errorf("final balance = %v, want ≈ %v", finalBalance, want)
	}
	// In equilibrium the sending rate equals the token generation rate 1/Δ.
	_, finalRate := tr.Rate.Last()
	if math.Abs(finalRate-1/delta) > 0.2/delta {
		t.Errorf("final rate = %v, want ≈ %v", finalRate, 1/delta)
	}
	// The balance must stay within [0, C] throughout.
	if lo := slices.Min(tr.Balance.Values); lo < 0 || tr.Balance.Max() > 10 {
		t.Errorf("balance left [0, C]: min %v max %v", lo, tr.Balance.Max())
	}
}

func TestSimulateValidation(t *testing.T) {
	m := Randomized(5, 10)
	if _, err := Simulate(m, 0, 0, 0, 1, 10); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := Simulate(m, 1, 0, 0, 0, 10); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := Simulate(m, 1, 0, 0, 1, 0); err == nil {
		t.Error("duration=0 accepted")
	}
}

func TestModelShapes(t *testing.T) {
	r := Randomized(5, 10)
	if r.Proactive(3) != 0 || r.Proactive(11) != 1 {
		t.Error("randomized proactive boundaries wrong")
	}
	if got := r.Proactive(7); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("randomized proactive(7) = %v, want 0.5", got)
	}
	if r.Reactive(-1) != 0 {
		t.Error("negative balance should give zero reactive value")
	}
	g := Generalized(4, 8)
	if g.Reactive(0) != 0 || math.Abs(g.Reactive(5)-2) > 1e-12 {
		t.Errorf("generalized reactive values wrong: %v", g.Reactive(5))
	}
	s := Simple(4)
	if s.Proactive(4) != 1 || s.Proactive(3.9) != 0 {
		t.Error("simple proactive boundaries wrong")
	}
	degenerate := Randomized(5, 5)
	if degenerate.Proactive(5) != 1 {
		t.Error("degenerate randomized ramp should return 1 at capacity")
	}
}
