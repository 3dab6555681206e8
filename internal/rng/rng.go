// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Large-scale experiments (up to 500,000 simulated nodes) need one
// independent generator per node so that results do not depend on event
// ordering. A math/rand.Rand carries several kilobytes of state; the
// SplitMix64 generator used here needs only 8 bytes while providing more than
// enough statistical quality for simulation workloads. Seeds for per-node
// generators are derived with Derive so that every (experiment seed, node)
// pair yields an independent stream.
package rng

import (
	"math"
	"math/bits"
)

// Source is a SplitMix64 pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New to make the seeding explicit.
// Source is not safe for concurrent use.
type Source struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Seeded returns a generator value seeded with seed. It is the value-typed
// counterpart of New for embedding generators in slabs (one 8-byte state per
// node) instead of allocating each on the heap; &slab[i] yields the same
// stream as New(seed).
func Seeded(seed uint64) Source {
	return Source{state: seed}
}

// Derive deterministically mixes a base seed and a stream index into a new
// seed, so that per-node generators are decorrelated even for adjacent
// indices.
func Derive(seed, stream uint64) uint64 {
	s := Source{state: seed ^ mix(stream+0x9e3779b97f4a7c15)}
	return s.Uint64()
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Float64 returns a pseudo-random number in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift bounded generation (Lemire); the tiny modulo bias of the
	// plain approach is irrelevant for simulation, but this is just as cheap.
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and standard
// deviation 1, using the Box–Muller transform.
func (s *Source) NormFloat64() float64 {
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}
