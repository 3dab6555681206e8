package metrics

import (
	"math"
	"sort"
)

// DefaultQuantileCap is the reservoir capacity of NewQuantile: large enough
// that every experiment at the repository's test and figure scales stays in
// the exact regime (fewer samples than the capacity), small enough that a
// quantile costs a fixed 32 KiB regardless of run length.
const DefaultQuantileCap = 4096

// Quantile is a streaming quantile accumulator over an unordered sample
// stream (commit latencies, burst sizes): it retains a bounded uniform
// reservoir and answers arbitrary quantile queries from it. While the sample
// count is at most the capacity the reservoir holds every sample and queries
// are exact; past it, reservoir sampling keeps a uniform subsample, with all
// replacement randomness drawn from an internal splitmix64 stream seeded by
// construction — so for a fixed insertion order the state, and therefore
// every query, is a pure function of the inputs. Determinism is the design
// constraint here: experiment repetitions must stay byte-identical across
// shard counts and reruns, which rules out rand.Rand (global,
// order-fragile) and sampling sketches with platform-dependent behaviour.
//
// The zero value is not ready for use; construct with NewQuantile. A Quantile
// is not safe for concurrent use: callers adding from multiple goroutines
// must serialize.
type Quantile struct {
	cap     int
	n       int64 // samples offered, including evicted ones
	samples []float64
	state   uint64 // splitmix64 state for reservoir replacement
	scratch []float64
}

// NewQuantile returns an empty accumulator with the default capacity.
func NewQuantile() *Quantile { return newQuantileCap(DefaultQuantileCap) }

// newQuantileCap returns an empty accumulator retaining at most cap samples.
// It panics if cap < 1.
func newQuantileCap(cap int) *Quantile {
	if cap < 1 {
		panic("metrics: newQuantileCap needs a capacity ≥ 1")
	}
	return &Quantile{
		cap:     cap,
		samples: make([]float64, 0, cap),
		state:   0x9e3779b97f4a7c15,
	}
}

// next is one splitmix64 step mapped to [0, bound).
func (q *Quantile) next(bound int64) int64 {
	q.state += 0x9e3779b97f4a7c15
	z := q.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z % uint64(bound))
}

// Add offers one sample to the reservoir.
func (q *Quantile) Add(v float64) {
	q.n++
	if len(q.samples) < q.cap {
		q.samples = append(q.samples, v)
		return
	}
	// Algorithm R: the i-th sample replaces a reservoir slot with
	// probability cap/i, keeping the retained set uniform.
	if j := q.next(q.n); j < int64(q.cap) {
		q.samples[j] = v
	}
}

// N returns the number of samples offered so far (not the retained count).
func (q *Quantile) N() int64 { return q.n }

// Query returns the p-quantile (p in [0, 1]) of the retained samples using
// the nearest-rank definition: the smallest retained value v such that at
// least ⌈p·k⌉ of the k retained samples are ≤ v. It returns NaN when nothing
// has been added. Queries cost one sort of a scratch copy, so they are meant
// for end-of-run reporting, not the event hot path.
func (q *Quantile) Query(p float64) float64 {
	k := len(q.samples)
	if k == 0 {
		return math.NaN()
	}
	q.scratch = append(q.scratch[:0], q.samples...)
	sort.Float64s(q.scratch)
	if p <= 0 {
		return q.scratch[0]
	}
	rank := int(math.Ceil(p * float64(k)))
	if rank < 1 {
		rank = 1
	}
	if rank > k {
		rank = k
	}
	return q.scratch[rank-1]
}
