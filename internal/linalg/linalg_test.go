package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/szte-dcs/tokenaccount/overlay"
)

func TestNewSparseFromRowsValidation(t *testing.T) {
	if _, err := newSparseFromRows(2, [][]int{{0}}, [][]float64{{1}}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if _, err := newSparseFromRows(1, [][]int{{0, 0}}, [][]float64{{1}}); err == nil {
		t.Error("column/value length mismatch accepted")
	}
	if _, err := newSparseFromRows(1, [][]int{{3}}, [][]float64{{1}}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestSparseAtAndMulVec(t *testing.T) {
	// M = [[2 0 1], [0 3 0], [4 0 0]]
	m, err := newSparseFromRows(3,
		[][]int{{0, 2}, {1}, {0}},
		[][]float64{{2, 1}, {3}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.values) != 4 || m.n != 3 {
		t.Fatalf("stored entries=%d N=%d", len(m.values), m.n)
	}
	if at(m, 0, 2) != 1 || at(m, 2, 0) != 4 || at(m, 1, 0) != 0 {
		t.Error("At returned wrong values")
	}
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.mulVec(dst, x)
	want := []float64{5, 6, 4}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("mulVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m, _ := newSparseFromRows(2, [][]int{{0}, {1}}, [][]float64{{1}, {1}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	m.mulVec(make([]float64, 3), make([]float64, 2))
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if norm2(a) != 5 {
		t.Errorf("norm2 = %v, want 5", norm2(a))
	}
	if dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	v := []float64{3, 4}
	if n := normalize(v); n != 5 {
		t.Errorf("normalize returned %v, want 5", n)
	}
	if math.Abs(norm2(v)-1) > 1e-12 {
		t.Errorf("normalized norm = %v", norm2(v))
	}
	zero := []float64{0, 0}
	if normalize(zero) != 0 {
		t.Error("normalize of zero vector should return 0")
	}
}

func TestAngle(t *testing.T) {
	if got := Angle([]float64{1, 0}, []float64{0, 1}); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("Angle(orthogonal) = %v", got)
	}
	if got := Angle([]float64{1, 1}, []float64{2, 2}); got > 1e-7 {
		t.Errorf("Angle(parallel) = %v, want 0", got)
	}
	// Sign is ignored: anti-parallel vectors have angle 0.
	if got := Angle([]float64{1, 0}, []float64{-1, 0}); got > 1e-7 {
		t.Errorf("Angle(anti-parallel) = %v, want 0", got)
	}
	if got := Angle([]float64{0, 0}, []float64{1, 0}); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("Angle with zero vector = %v, want π/2", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	dot([]float64{1}, []float64{1, 2})
}

func TestColumnStochasticFromGraph(t *testing.T) {
	g, err := overlay.NewFromOut([][]int{{1, 2}, {2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ColumnStochasticFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Column j sums to 1.
	for j := 0; j < 3; j++ {
		sum := 0.0
		for i := 0; i < 3; i++ {
			sum += at(m, i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("column %d sums to %v, want 1", j, sum)
		}
	}
	// Node 0 has out-degree 2, so A[1][0] = A[2][0] = 0.5.
	if at(m, 1, 0) != 0.5 || at(m, 2, 0) != 0.5 {
		t.Error("weights from node 0 wrong")
	}
}

func TestColumnStochasticRejectsSinks(t *testing.T) {
	g, err := overlay.NewFromOut([][]int{{1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ColumnStochasticFromGraph(g); err == nil {
		t.Error("graph with a sink node accepted")
	}
}

func TestPowerIterationOnKnownMatrix(t *testing.T) {
	// M = [[2 1], [1 2]] has dominant eigenvalue 3 with eigenvector (1,1)/√2.
	m, err := newSparseFromRows(2, [][]int{{0, 1}, {0, 1}}, [][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res := PowerIteration(m, 1000, 1e-12)
	if !res.Converged {
		t.Fatal("power iteration did not converge")
	}
	if math.Abs(res.Eigenvalue-3) > 1e-6 {
		t.Errorf("eigenvalue = %v, want 3", res.Eigenvalue)
	}
	want := 1 / math.Sqrt(2)
	for i, v := range res.Vector {
		if math.Abs(math.Abs(v)-want) > 1e-6 {
			t.Errorf("eigenvector[%d] = %v, want ±%v", i, v, want)
		}
	}
}

func TestPowerIterationOnColumnStochasticGraph(t *testing.T) {
	g, err := overlay.WattsStrogatz(200, 4, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ColumnStochasticFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	res := PowerIteration(m, 200000, 1e-9)
	if !res.Converged {
		t.Fatal("power iteration did not converge on the small-world matrix")
	}
	if math.Abs(res.Eigenvalue-1) > 1e-6 {
		t.Errorf("spectral radius = %v, want 1", res.Eigenvalue)
	}
	// The eigenvector is a fixed point: ‖Mv − v‖ small.
	mv := make([]float64, m.n)
	m.mulVec(mv, res.Vector)
	if angle := Angle(mv, res.Vector); angle > 1e-6 {
		t.Errorf("Mv deviates from v by angle %v", angle)
	}
	// Entries of the dominant eigenvector of a non-negative irreducible
	// matrix are strictly positive (up to global sign).
	sign := 1.0
	if res.Vector[0] < 0 {
		sign = -1
	}
	for i, v := range res.Vector {
		if sign*v <= 0 {
			t.Fatalf("eigenvector entry %d = %v is not strictly of uniform sign", i, v)
		}
	}
}

func TestQuickAngleSymmetricAndBounded(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		ab, ba := Angle(a, b), Angle(b, a)
		return math.Abs(ab-ba) < 1e-9 && ab >= 0 && ab <= math.Pi/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// at returns the entry of m at (i, j), or 0 if it is not stored.
func at(m *Sparse, i, j int) float64 {
	cols, vals := m.row(i)
	for k, c := range cols {
		if int(c) == j {
			return vals[k]
		}
	}
	return 0
}
