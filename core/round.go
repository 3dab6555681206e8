package core

import "math"

// Rand is the minimal source of randomness the framework needs. *math/rand.Rand
// and *math/rand/v2.Rand both satisfy it.
type Rand interface {
	// Float64 returns a pseudo-random number in [0, 1).
	Float64() float64
}

// RandRound performs the randomized (probabilistic) rounding used by
// Algorithm 4: a non-negative value r is rounded to floor(r) + ξ where
// ξ ~ Bernoulli(r − floor(r)). The expected value of the result equals r.
//
// Negative inputs are treated as 0.
func RandRound(r float64, rng Rand) int {
	if r <= 0 || math.IsNaN(r) {
		return 0
	}
	floor := math.Floor(r)
	frac := r - floor
	n := int(floor)
	if frac > 0 && rng.Float64() < frac {
		n++
	}
	return n
}

// Bernoulli returns true with probability p (clamped to [0, 1]), drawing
// from rng only for p strictly between 0 and 1; a NaN p is false. It is
// small enough to inline, so a caller that passes a concrete generator calls
// it directly and a generator on the caller's stack stays there.
func Bernoulli(p float64, rng Rand) bool {
	if !(p > 0) {
		return false
	}
	return p >= 1 || rng.Float64() < p
}
