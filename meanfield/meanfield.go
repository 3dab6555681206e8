// Package meanfield implements the analytical model of §4.3 of the paper:
// a mean-field description of the average token balance a(t) and the average
// per-node message rate w'(t),
//
//	da/dt   = 1/Δ − dw/dt                                  (eq. 8)
//	d²w/dt² = dw/dt·(REACTIVE(a,u) − 1) + PROACTIVE(a)/Δ    (eq. 9)
//
// whose equilibrium satisfies REACTIVE(a,u) + PROACTIVE(a) = 1 (eq. 10). For
// the randomized token account with useful messages the equilibrium balance
// is a = A·C/(C+1) ≈ A, which Figure 5 validates against simulation.
package meanfield

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/metrics"
)

// Model is the continuous extension of a token account strategy: the
// proactive and reactive functions evaluated at a real-valued balance, as
// required by the mean-field differential equations.
type Model struct {
	// Name identifies the modelled strategy.
	Name string
	// Proactive is the continuous proactive function.
	Proactive func(a float64) float64
	// Reactive is the continuous reactive function for useful messages.
	Reactive func(a float64) float64
	// Capacity is the token capacity C.
	Capacity float64
}

// Simple returns the continuous model of the simple token account strategy.
// The step functions of eqs. (1)–(2) are kept as steps.
func Simple(c int) Model {
	cf := float64(c)
	return Model{
		Name:     fmt.Sprintf("simple(C=%d)", c),
		Capacity: cf,
		Proactive: func(a float64) float64 {
			if a >= cf {
				return 1
			}
			return 0
		},
		Reactive: func(a float64) float64 {
			if a > 0 {
				return 1
			}
			return 0
		},
	}
}

// Generalized returns the continuous model of the generalized token account
// strategy; the floor of eq. (3) is dropped in the continuous limit.
func Generalized(a, c int) Model {
	af, cf := float64(a), float64(c)
	return Model{
		Name:     fmt.Sprintf("generalized(A=%d,C=%d)", a, c),
		Capacity: cf,
		Proactive: func(x float64) float64 {
			if x >= cf {
				return 1
			}
			return 0
		},
		Reactive: func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return (af - 1 + x) / af
		},
	}
}

// Randomized returns the continuous model of the randomized token account
// strategy (eqs. (4)–(5)).
func Randomized(a, c int) Model {
	af, cf := float64(a), float64(c)
	return Model{
		Name:     fmt.Sprintf("randomized(A=%d,C=%d)", a, c),
		Capacity: cf,
		Proactive: func(x float64) float64 {
			switch {
			case x < af-1:
				return 0
			case x > cf:
				return 1
			default:
				den := cf - af + 1
				if den <= 0 {
					return 1
				}
				return (x - af + 1) / den
			}
		},
		Reactive: func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return x / af
		},
	}
}

// PredictedRandomizedBalance returns the closed-form equilibrium balance
// A·C/(C+1) of the randomized token account for useful messages (u = 1),
// derived in §4.3.
func PredictedRandomizedBalance(a, c int) float64 {
	return float64(a) * float64(c) / float64(c+1)
}

// Equilibrium solves eq. (10), REACTIVE(a) + PROACTIVE(a) = 1, for the
// balance a by bisection over [0, Capacity]. It returns an error if the
// equation has no root in that range (e.g. for the purely proactive model
// whose left side is constant 1 only at a = 0 — in that degenerate case 0 is
// returned). Only tests call it today; it stays exported as the oracle that
// simulated balances are compared with.
func Equilibrium(m Model) (float64, error) {
	f := func(a float64) float64 { return m.Reactive(a) + m.Proactive(a) - 1 }
	lo, hi := 0.0, m.Capacity
	if m.Capacity <= 0 {
		return 0, nil
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if flo > 0 {
		// Already overspending at zero balance; equilibrium is at 0.
		return 0, nil
	}
	if fhi < 0 {
		return 0, fmt.Errorf("meanfield: %s: no equilibrium in [0,%g]", m.Name, m.Capacity)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Trajectory is the result of integrating the mean-field ODEs.
type Trajectory struct {
	// Balance is the average token balance a(t).
	Balance *metrics.Series
	// Rate is the average per-node sending rate dw/dt(t), in messages per
	// second.
	Rate *metrics.Series
}

// Simulate integrates eqs. (8)–(9) with explicit Euler steps of size dt over
// the given duration, starting from a(0) = a0 and dw/dt(0) = r0. The paper's
// experiments start with empty accounts, i.e. a0 = 0, and an initial rate of
// one message per period, r0 = 1/Δ. Only tests and a benchmark call it
// today; like Equilibrium it stays exported as an oracle for simulated runs.
func Simulate(m Model, delta, a0, r0, dt, duration float64) (*Trajectory, error) {
	if delta <= 0 || dt <= 0 || duration <= 0 {
		return nil, fmt.Errorf("meanfield: non-positive delta/dt/duration")
	}
	tr := &Trajectory{Balance: &metrics.Series{}, Rate: &metrics.Series{}}
	a, r := a0, r0
	steps := int(math.Ceil(duration / dt))
	sampleEvery := steps / 1000
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for s := 0; s <= steps; s++ {
		t := float64(s) * dt
		if s%sampleEvery == 0 {
			tr.Balance.Add(t, a)
			tr.Rate.Add(t, r)
		}
		da := 1/delta - r
		dr := r*(m.Reactive(a)-1) + m.Proactive(a)/delta
		a += da * dt
		r += dr * dt
		if a < 0 {
			a = 0
		}
		if a > m.Capacity {
			a = m.Capacity
		}
		if r < 0 {
			r = 0
		}
	}
	return tr, nil
}
