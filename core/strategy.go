package core

import (
	"errors"
	"fmt"
)

// Strategy defines the proactive and reactive behaviour of a token account
// node as a function of its current account balance.
//
// Implementations must satisfy the constraints from §3.1 of the paper:
//
//   - Proactive(a) ∈ [0, 1] and is monotone non-decreasing in a.
//   - Reactive(a, u) ≥ 0, is monotone non-decreasing in a, is monotone
//     non-decreasing in u (a useful message never triggers fewer sends than a
//     useless one at the same balance), and never exceeds a for strategies
//     that forbid overspending.
type Strategy interface {
	// Proactive returns the probability of sending a proactive message in
	// the current round, given the account balance a.
	Proactive(a int) float64

	// Reactive returns the (possibly fractional) number of messages to send
	// in reaction to an incoming message, given the account balance a and
	// whether the message was useful. Fractional values are resolved by the
	// caller with randomized rounding (RandRound).
	Reactive(a int, useful bool) float64

	// Capacity returns the token capacity C: the smallest balance for which
	// Proactive returns 1. Strategies whose balance may grow without bound
	// (such as PureReactive) return UnboundedCapacity.
	Capacity() int

	// Name returns a short human-readable identifier such as
	// "generalized(A=5,C=10)".
	Name() string
}

// UnboundedCapacity is returned by Strategy.Capacity when the account balance
// is not bounded by the strategy (and hence bursts are not limited).
const UnboundedCapacity = -1

// Validation errors returned by the strategy constructors.
var (
	// ErrNegativeCapacity indicates a capacity parameter C < 0.
	ErrNegativeCapacity = errors.New("core: capacity C must be non-negative")
	// ErrNonPositiveA indicates a spending parameter A < 1.
	ErrNonPositiveA = errors.New("core: parameter A must be a positive integer")
	// ErrCapacityBelowA indicates C < A, which the paper forbids (A ≤ C).
	ErrCapacityBelowA = errors.New("core: capacity C must be at least A")
	// ErrNonPositiveFanout indicates a pure-reactive fanout k < 1.
	ErrNonPositiveFanout = errors.New("core: reactive fanout k must be a positive integer")
)

// PurelyProactive is the classical proactive gossip pattern expressed in the
// token account framework: a proactive message is sent in every round and
// incoming messages trigger no sends. It is equivalent to Simple with C = 0.
//
// The zero value is ready to use.
type PurelyProactive struct{}

var _ Strategy = PurelyProactive{}

// Proactive always returns 1.
func (PurelyProactive) Proactive(int) float64 { return 1 }

// Reactive always returns 0.
func (PurelyProactive) Reactive(int, bool) float64 { return 0 }

// Capacity returns 0: no tokens are ever banked.
func (PurelyProactive) Capacity() int { return 0 }

// Name implements Strategy.
func (PurelyProactive) Name() string { return "proactive" }

// Simple is the simple token account strategy (§3.3.1, eqs. (1)–(2)): the
// node sends proactively only when the account is full (a ≥ C) and reacts to
// every incoming message with exactly one message while it has tokens. It is
// the closest relative of the token bucket algorithm, extended with a default
// proactive behaviour that keeps messages circulating under failures.
type Simple struct {
	c int
}

var _ Strategy = Simple{}

// NewSimple returns a simple token account strategy with capacity C.
// C = 0 yields the purely proactive behaviour.
func NewSimple(c int) (Simple, error) {
	if c < 0 {
		return Simple{}, fmt.Errorf("NewSimple(C=%d): %w", c, ErrNegativeCapacity)
	}
	return Simple{c: c}, nil
}

// MustSimple is like NewSimple but panics on invalid parameters. It is
// intended for tests, examples and statically-known configurations.
func MustSimple(c int) Simple {
	s, err := NewSimple(c)
	if err != nil {
		panic(err)
	}
	return s
}

// Proactive implements eq. (1): 1 if a ≥ C, 0 otherwise.
func (s Simple) Proactive(a int) float64 {
	if a >= s.c {
		return 1
	}
	return 0
}

// Reactive implements eq. (2): 1 if a > 0, 0 otherwise.
func (s Simple) Reactive(a int, _ bool) float64 {
	if a > 0 {
		return 1
	}
	return 0
}

// Capacity returns C.
func (s Simple) Capacity() int { return s.c }

// Name implements Strategy.
func (s Simple) Name() string { return fmt.Sprintf("simple(C=%d)", s.c) }

// Generalized is the generalized token account strategy (§3.3.2, eqs. (1) and
// (3)). The proactive function equals the simple strategy's; the reactive
// function spends a tunable fraction of the balance, rounded down, and halves
// the response for non-useful messages so that scarce tokens are not wasted.
type Generalized struct {
	a int // spending aggressiveness A ≥ 1
	c int // capacity C ≥ A
}

var _ Strategy = Generalized{}

// NewGeneralized returns a generalized token account strategy with spending
// parameter A and capacity C. A must be a positive integer and C ≥ A. A = C
// reduces the reactive function to the simple strategy's for useful messages
// only: for a useless one and a balance 1 ≤ a ≤ C, floor((C−1+a)/(2C)) is 0
// where the simple strategy returns 1.
func NewGeneralized(a, c int) (Generalized, error) {
	if a < 1 {
		return Generalized{}, fmt.Errorf("NewGeneralized(A=%d,C=%d): %w", a, c, ErrNonPositiveA)
	}
	if c < a {
		return Generalized{}, fmt.Errorf("NewGeneralized(A=%d,C=%d): %w", a, c, ErrCapacityBelowA)
	}
	return Generalized{a: a, c: c}, nil
}

// MustGeneralized is like NewGeneralized but panics on invalid parameters.
func MustGeneralized(a, c int) Generalized {
	s, err := NewGeneralized(a, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Proactive implements eq. (1): 1 if a ≥ C, 0 otherwise.
func (g Generalized) Proactive(a int) float64 {
	if a >= g.c {
		return 1
	}
	return 0
}

// Reactive implements eq. (3): floor((A−1+a)/A) for useful messages and
// floor((A−1+a)/(2A)) otherwise. The result never exceeds a.
func (g Generalized) Reactive(a int, useful bool) float64 {
	if a <= 0 {
		return 0
	}
	if useful {
		return float64((g.a - 1 + a) / g.a)
	}
	return float64((g.a - 1 + a) / (2 * g.a))
}

// Capacity returns C.
func (g Generalized) Capacity() int { return g.c }

// Name implements Strategy.
func (g Generalized) Name() string { return fmt.Sprintf("generalized(A=%d,C=%d)", g.a, g.c) }

// Randomized is the randomized token account strategy (§3.3.3, eqs. (4)–(5)).
// The proactive probability ramps up linearly between balances A−1 and C, and
// the reactive function returns the fractional value a/A for useful messages
// (resolved by randomized rounding) and 0 for non-useful ones.
type Randomized struct {
	a int
	c int
}

var _ Strategy = Randomized{}

// NewRandomized returns a randomized token account strategy with spending
// parameter A and capacity C (A ≥ 1, C ≥ A).
func NewRandomized(a, c int) (Randomized, error) {
	if a < 1 {
		return Randomized{}, fmt.Errorf("NewRandomized(A=%d,C=%d): %w", a, c, ErrNonPositiveA)
	}
	if c < a {
		return Randomized{}, fmt.Errorf("NewRandomized(A=%d,C=%d): %w", a, c, ErrCapacityBelowA)
	}
	return Randomized{a: a, c: c}, nil
}

// MustRandomized is like NewRandomized but panics on invalid parameters.
func MustRandomized(a, c int) Randomized {
	s, err := NewRandomized(a, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Proactive implements eq. (4): 0 below A−1, a linear ramp on [A−1, C], and 1
// above C.
func (r Randomized) Proactive(a int) float64 {
	switch {
	case a < r.a-1:
		return 0
	case a > r.c:
		return 1
	default:
		den := float64(r.c - r.a + 1)
		if den <= 0 {
			// A == C+1 cannot happen (C ≥ A), but a == C == A-1 makes the
			// segment degenerate; the account is full, so send.
			return 1
		}
		return float64(a-r.a+1) / den
	}
}

// Reactive implements eq. (5): a/A for useful messages, 0 otherwise.
func (r Randomized) Reactive(a int, useful bool) float64 {
	if !useful || a <= 0 {
		return 0
	}
	return float64(a) / float64(r.a)
}

// Capacity returns C.
func (r Randomized) Capacity() int { return r.c }

// Name implements Strategy.
func (r Randomized) Name() string { return fmt.Sprintf("randomized(A=%d,C=%d)", r.a, r.c) }

// PureReactive is the purely reactive (flooding-like) strategy: never send
// proactively, always send k messages in response to an incoming message
// (or, with OnlyUseful set, in response to useful messages only). The account
// balance is allowed to go negative, i.e. there is no rate limiting; the
// strategy is included as the convergence-speed upper bound discussed in the
// paper, not as a deployable configuration.
type PureReactive struct {
	k          int
	onlyUseful bool
}

var _ Strategy = PureReactive{}

// NewPureReactive returns a pure reactive strategy with fanout k ≥ 1. If
// onlyUseful is true, only useful messages trigger reactions (REACTIVE(a,u) ≡
// u·k), otherwise every message does (REACTIVE(a,u) ≡ k).
func NewPureReactive(k int, onlyUseful bool) (PureReactive, error) {
	if k < 1 {
		return PureReactive{}, fmt.Errorf("NewPureReactive(k=%d): %w", k, ErrNonPositiveFanout)
	}
	return PureReactive{k: k, onlyUseful: onlyUseful}, nil
}

// MustPureReactive is like NewPureReactive but panics on invalid parameters.
// Only tests call it (protocol, runtime, simnet), to build the flooding
// reference with fixed, valid parameters; it stays exported as that fixture,
// beside the Must constructors of the other strategy families.
func MustPureReactive(k int, onlyUseful bool) PureReactive {
	s, err := NewPureReactive(k, onlyUseful)
	if err != nil {
		panic(err)
	}
	return s
}

// Proactive always returns 0.
func (PureReactive) Proactive(int) float64 { return 0 }

// Reactive returns k (or u·k when restricted to useful messages), regardless
// of the balance.
func (p PureReactive) Reactive(_ int, useful bool) float64 {
	if p.onlyUseful && !useful {
		return 0
	}
	return float64(p.k)
}

// Capacity returns UnboundedCapacity: the strategy provides no burst bound.
func (PureReactive) Capacity() int { return UnboundedCapacity }

// Name implements Strategy.
func (p PureReactive) Name() string {
	if p.onlyUseful {
		return fmt.Sprintf("reactive(k=%d,useful-only)", p.k)
	}
	return fmt.Sprintf("reactive(k=%d)", p.k)
}

// AllowsOverspend reports whether the strategy requires the account balance
// to be allowed to go negative. Only the pure reactive strategy does.
func AllowsOverspend(s Strategy) bool {
	_, ok := s.(PureReactive)
	return ok
}
