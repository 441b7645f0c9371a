// Package linalg provides the small dense linear-algebra kernel used by the
// leakage estimator: a row-major dense matrix type, Cholesky factorization
// (for sampling correlated process fields), triangular solves, and linear
// least squares (for the a·e^(bL+cL²) leakage fit).
//
// The package is deliberately minimal and dependency-free; it implements only
// the well-conditioned, symmetric-positive-definite and small-overdetermined
// problems that arise in statistical leakage analysis.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/telemetry"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns an r×c zero matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major data. The slice is
// copied; the caller retains ownership of data.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), r, c))
	}
	m := NewMatrix(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	return NewMatrixFrom(m.rows, m.cols, m.data)
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and b. The matrices must have identical shape.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.rows != b.rows || m.cols != b.cols {
		panic("linalg: shape mismatch in MaxAbsDiff")
	}
	max := 0.0
	for i, v := range m.data {
		if d := math.Abs(v - b.data[i]); d > max {
			max = d
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
			if j < m.cols-1 {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IsSymmetric reports whether the matrix is square and symmetric to within
// tol on each element pair.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix a such that a = L·Lᵀ. Only the lower triangle of a is read.
// It returns ErrNotPositiveDefinite if a pivot is non-positive, and a typed
// Numerical error if the finished factor contains NaN or Inf (e.g. from a
// corrupted input off the pivot path).
//
// Column j is L_ij = (a_ij − Σ_{k<j} L_ik·L_jk)/L_jj, each sum accumulated
// in k order. Rows below the pivot are computed four at a time, one
// accumulator per row, so four independent dependency chains share each
// load of L_jk; every element sees the same operations in the same order
// as the row-at-a-time loop, so the factor is bitwise unchanged.
func Cholesky(a *Matrix) (*Matrix, error) {
	defer telemetry.TimeStage("linalg.cholesky")()
	fault.Hit(fault.SiteCholesky)
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.data[j*n+j]
		lj := l.data[j*n : j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if j == 0 {
			d = fault.Corrupt(fault.SiteCholesky, d)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, j, d)
		}
		dj := math.Sqrt(d)
		l.data[j*n+j] = dj
		i := j + 1
		for ; i+3 < n; i += 4 {
			l0 := l.data[i*n : i*n+j][:len(lj)]
			l1 := l.data[(i+1)*n : (i+1)*n+j][:len(l0)]
			l2 := l.data[(i+2)*n : (i+2)*n+j][:len(l0)]
			l3 := l.data[(i+3)*n : (i+3)*n+j][:len(l0)]
			s0, s1, s2, s3 := a.data[i*n+j], a.data[(i+1)*n+j], a.data[(i+2)*n+j], a.data[(i+3)*n+j]
			for k, v := range lj {
				s0 -= l0[k] * v
				s1 -= l1[k] * v
				s2 -= l2[k] * v
				s3 -= l3[k] * v
			}
			l.data[i*n+j], l.data[(i+1)*n+j], l.data[(i+2)*n+j], l.data[(i+3)*n+j] = s0/dj, s1/dj, s2/dj, s3/dj
		}
		for ; i < n; i++ {
			s := a.data[i*n+j]
			for k, v := range l.data[i*n : i*n+j] {
				s -= v * lj[k]
			}
			l.data[i*n+j] = s / dj
		}
	}
	if err := l.CheckFinite("linalg.Cholesky"); err != nil {
		return nil, err
	}
	return l, nil
}

// CheckFinite returns a typed Numerical error naming the first NaN or ±Inf
// element of the matrix, or nil if every element is finite.
func (m *Matrix) CheckFinite(op string) error {
	for idx, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return lkerr.New(lkerr.Numerical, op, "element (%d,%d) is %g",
				idx/m.cols, idx%m.cols, v)
		}
	}
	return nil
}

// CholeskyJittered behaves like Cholesky but, if factorization fails, retries
// with geometrically increasing diagonal jitter up to maxJitter (relative to
// the mean diagonal). It is used to sample from empirically assembled
// correlation matrices that are PSD only up to round-off.
// It returns the factor and the jitter actually applied.
func CholeskyJittered(a *Matrix, maxJitter float64) (*Matrix, float64, error) {
	l, err := Cholesky(a)
	if err == nil {
		return l, 0, nil
	}
	n := a.rows
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += a.At(i, i)
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	for jit := 1e-12; jit <= maxJitter; jit *= 10 {
		b := a.Clone()
		for i := 0; i < n; i++ {
			b.Add(i, i, jit*meanDiag)
		}
		if l, err := Cholesky(b); err == nil {
			return l, jit * meanDiag, nil
		}
	}
	return nil, 0, fmt.Errorf("linalg: Cholesky failed even with jitter %g: %w", maxJitter, err)
}

// SolveLowerTriangular solves L·x = b for x, where L is lower triangular.
func SolveLowerTriangular(l *Matrix, b []float64) []float64 {
	n := l.rows
	if l.cols != n || len(b) != n {
		panic("linalg: dimension mismatch in SolveLowerTriangular")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveUpperTriangular solves U·x = b for x, where U is upper triangular.
func SolveUpperTriangular(u *Matrix, b []float64) []float64 {
	n := u.rows
	if u.cols != n || len(b) != n {
		panic("linalg: dimension mismatch in SolveUpperTriangular")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := u.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveSPD solves a·x = b for symmetric positive definite a via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	y := SolveLowerTriangular(l, b)
	return SolveUpperTriangular(l.T(), y), nil
}
