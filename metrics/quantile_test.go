package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the reference nearest-rank quantile over a full sorted
// copy of the sample set.
func exactQuantile(values []float64, p float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestQuantileEmpty(t *testing.T) {
	q := NewQuantile()
	if q.N() != 0 {
		t.Errorf("N() = %d, want 0", q.N())
	}
	if v := q.Query(0.5); !math.IsNaN(v) {
		t.Errorf("Query on empty quantile = %v, want NaN", v)
	}
}

func TestQuantileCapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newQuantileCap(0) did not panic")
		}
	}()
	newQuantileCap(0)
}

// TestQuantileExactWithinCapacity is the property test of the acceptance
// criteria: while the stream fits in the reservoir, every quantile — p50 and
// p99 in particular — must equal the exact nearest-rank quantile of the full
// sorted sample, for random sample sets of random sizes.
func TestQuantileExactWithinCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		values := make([]float64, n)
		q := newQuantileCap(500)
		for i := range values {
			values[i] = rng.NormFloat64() * 100
			q.Add(values[i])
		}
		if q.N() != int64(n) {
			t.Fatalf("N() = %d, want %d", q.N(), n)
		}
		for _, p := range ps {
			want := exactQuantile(values, p)
			if got := q.Query(p); got != want {
				t.Fatalf("trial %d (n=%d): Query(%g) = %v, want %v", trial, n, p, got, want)
			}
		}
	}
}

// TestQuantileDeterminismPastCapacity pins the reservoir's determinism past
// capacity: adding the same long stream twice from scratch must give
// bit-identical retained state — all replacement randomness comes from the
// quantile's own seeded stream, nothing order-fragile or global.
func TestQuantileDeterminismPastCapacity(t *testing.T) {
	build := func() *Quantile {
		rng := rand.New(rand.NewSource(3))
		q := newQuantileCap(64)
		for i := 0; i < 2000; i++ {
			q.Add(rng.Float64())
		}
		return q
	}
	x, y := build(), build()
	if x.N() != 2000 || y.N() != 2000 {
		t.Fatalf("N() = %d, %d, want 2000 (evicted samples must still count)", x.N(), y.N())
	}
	if len(x.samples) != 64 {
		t.Fatalf("retained %d samples, want the capacity 64", len(x.samples))
	}
	for i := range x.samples {
		if x.samples[i] != y.samples[i] {
			t.Fatalf("sample %d differs between identical builds: %v vs %v", i, x.samples[i], y.samples[i])
		}
	}
	for _, p := range []float64{0.1, 0.5, 0.99} {
		if x.Query(p) != y.Query(p) {
			t.Errorf("Query(%g) differs between identical builds", p)
		}
	}
}

// TestQuantileOverCapacityStaysBracketed checks the sampling regime keeps
// answers inside the true sample range and roughly in place: the p50 of a
// uniform [0,1) stream of 100k samples through a 4096-slot reservoir must
// land well inside the central half.
func TestQuantileOverCapacityStaysBracketed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewQuantile()
	for i := 0; i < 100_000; i++ {
		q.Add(rng.Float64())
	}
	if q.N() != 100_000 {
		t.Fatalf("N() = %d, want 100000", q.N())
	}
	if med := q.Query(0.5); med < 0.4 || med > 0.6 {
		t.Errorf("median of uniform stream = %v, want within [0.4, 0.6]", med)
	}
	if lo, hi := q.Query(0), q.Query(1); lo < 0 || hi >= 1 {
		t.Errorf("range [%v, %v] escapes the sample range [0, 1)", lo, hi)
	}
}
