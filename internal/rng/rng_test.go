package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("generators with different seeds produced %d identical values", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		s := Derive(12345, i)
		if seen[s] {
			t.Fatalf("Derive produced duplicate seed for stream %d", i)
		}
		seen[s] = true
	}
	if Derive(1, 0) == Derive(2, 0) {
		t.Error("Derive ignores the base seed")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %v, want ≈ 0.5", mean)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	s := New(3)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		v := s.Intn(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Intn(%d) = %d out of range", buckets, v)
		}
		counts[v]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 0.1*n/buckets {
			t.Errorf("bucket %d count = %d, want ≈ %d", b, c, n/buckets)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ≈ 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ≈ 1", mean)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	if v := s.Float64(); v < 0 || v >= 1 {
		t.Errorf("zero-value Source Float64 = %v", v)
	}
}
