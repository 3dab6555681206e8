// Package linalg provides the small amount of sparse linear algebra the
// chaotic power iteration experiment needs: a CSR sparse matrix, dense vector
// helpers, a reference (centralized) power iteration used to compute the true
// dominant eigenvector, and the angle metric the paper reports.
package linalg

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/overlay"
)

// Sparse is a compressed sparse row matrix. Rows and columns are indexed from
// zero. The matrix is immutable after construction.
type Sparse struct {
	n      int
	rowOff []int64
	colIdx []int32
	values []float64
}

// row returns the column indices and values of row i as shared slices; the
// caller must not modify them.
func (m *Sparse) row(i int) ([]int32, []float64) {
	return m.colIdx[m.rowOff[i]:m.rowOff[i+1]], m.values[m.rowOff[i]:m.rowOff[i+1]]
}

// newSparseFromRows builds a CSR matrix from per-row (column, value) pairs.
func newSparseFromRows(n int, cols [][]int, vals [][]float64) (*Sparse, error) {
	if len(cols) != n || len(vals) != n {
		return nil, fmt.Errorf("linalg: expected %d rows, got %d column lists and %d value lists", n, len(cols), len(vals))
	}
	m := &Sparse{n: n, rowOff: make([]int64, n+1)}
	total := 0
	for i := 0; i < n; i++ {
		if len(cols[i]) != len(vals[i]) {
			return nil, fmt.Errorf("linalg: row %d has %d columns but %d values", i, len(cols[i]), len(vals[i]))
		}
		for _, c := range cols[i] {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("linalg: row %d references column %d outside [0,%d)", i, c, n)
			}
		}
		total += len(cols[i])
		m.rowOff[i+1] = int64(total)
	}
	m.colIdx = make([]int32, 0, total)
	m.values = make([]float64, 0, total)
	for i := 0; i < n; i++ {
		for k := range cols[i] {
			m.colIdx = append(m.colIdx, int32(cols[i][k]))
			m.values = append(m.values, vals[i][k])
		}
	}
	return m, nil
}

// ColumnStochasticFromGraph builds the weighted neighbourhood matrix used in
// the chaotic iteration experiment: A[i][j] = 1/outdeg(j) if the graph has an
// edge j -> i, and 0 otherwise. Every column sums to one, so the matrix is
// non-negative with spectral radius one, as required by Lubachevsky and
// Mitra's algorithm. Nodes with out-degree zero are rejected.
func ColumnStochasticFromGraph(g *overlay.Graph) (*Sparse, error) {
	n := g.N()
	cols := make([][]int, n)
	vals := make([][]float64, n)
	for j := 0; j < n; j++ {
		deg := g.OutDegree(j)
		if deg == 0 {
			return nil, fmt.Errorf("linalg: node %d has out-degree 0; column-stochastic matrix undefined", j)
		}
		w := 1.0 / float64(deg)
		for _, i := range g.OutNeighbors(j) {
			cols[i] = append(cols[i], j)
			vals[i] = append(vals[i], w)
		}
	}
	return newSparseFromRows(n, cols, vals)
}

// mulVec computes dst = M·x. dst and x must have length N and must not alias.
func (m *Sparse) mulVec(dst, x []float64) {
	if len(dst) != m.n || len(x) != m.n {
		panic(fmt.Sprintf("linalg: mulVec dimension mismatch: dst=%d x=%d n=%d", len(dst), len(x), m.n))
	}
	for i := 0; i < m.n; i++ {
		cols, vals := m.row(i)
		sum := 0.0
		for k, c := range cols {
			sum += vals[k] * x[c]
		}
		dst[i] = sum
	}
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// normalize scales v in place to unit Euclidean norm and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func normalize(v []float64) float64 {
	n := norm2(v)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

// Angle returns the angle in radians between two vectors, in [0, π/2]:
// direction is ignored because an eigenvector is only defined up to sign.
// It returns π/2 if either vector is zero.
func Angle(a, b []float64) float64 {
	na, nb := norm2(a), norm2(b)
	if na == 0 || nb == 0 {
		return math.Pi / 2
	}
	cos := math.Abs(dot(a, b)) / (na * nb)
	if cos > 1 {
		cos = 1
	}
	return math.Acos(cos)
}

// PowerIterationResult holds the output of the reference power iteration.
type PowerIterationResult struct {
	// Vector is the computed dominant eigenvector, normalized to unit norm.
	Vector []float64
	// Eigenvalue is the Rayleigh-quotient estimate of the dominant eigenvalue.
	Eigenvalue float64
	// Iterations is the number of iterations performed.
	Iterations int
	// Converged reports whether the tolerance was reached before maxIter.
	Converged bool
}

// PowerIteration computes the dominant eigenvector of m with the classical
// (synchronous, centralized) power method, starting from the all-ones vector.
// It stops when the angle between successive iterates drops below tol or
// after maxIter iterations. It is used as the ground truth against which the
// decentralized chaotic iteration is measured.
func PowerIteration(m *Sparse, maxIter int, tol float64) PowerIterationResult {
	n := m.n
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	normalize(x)
	next := make([]float64, n)
	res := PowerIterationResult{}
	for iter := 1; iter <= maxIter; iter++ {
		m.mulVec(next, x)
		res.Eigenvalue = dot(x, next)
		if normalize(next) == 0 {
			// The iterate vanished (nilpotent-like behaviour); return what we
			// have rather than dividing by zero.
			res.Vector = x
			res.Iterations = iter
			return res
		}
		angle := Angle(x, next)
		x, next = next, x
		res.Iterations = iter
		if angle < tol {
			res.Converged = true
			break
		}
	}
	res.Vector = x
	return res
}
