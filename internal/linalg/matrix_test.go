package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g, want 6", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set/At roundtrip failed")
	}
	m.Add(0, 1, 1)
	if m.At(0, 1) != 10 {
		t.Errorf("Add failed: got %g", m.At(0, 1))
	}
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 || tr.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %v", tr)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Errorf("Clone aliases original")
	}
}

func TestIdentityMul(t *testing.T) {
	id := Identity(4)
	a := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, float64(i*4+j+1))
		}
	}
	if got := id.Mul(a); got.MaxAbsDiff(a) != 0 {
		t.Errorf("I*A != A")
	}
	if got := a.Mul(id); got.MaxAbsDiff(a) != 0 {
		t.Errorf("A*I != A")
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := a.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", y)
	}
}

func TestMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on out-of-range access")
		}
	}()
	m := NewMatrix(2, 2)
	_ = m.At(2, 0)
}

// randomSPD builds a random symmetric positive definite matrix B·Bᵀ + n·I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Mul(b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 10, 25, 60} {
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: Cholesky: %v", n, err)
		}
		rec := l.Mul(l.T())
		if d := rec.MaxAbsDiff(a); d > 1e-9*float64(n) {
			t.Errorf("n=%d: |LLᵀ-A| = %g too large", n, d)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Errorf("n=%d: L(%d,%d) = %g, want 0", n, i, j, l.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Errorf("expected failure on indefinite matrix")
	}
	b := NewMatrixFrom(2, 3, make([]float64, 6))
	if _, err := Cholesky(b); err == nil {
		t.Errorf("expected failure on non-square matrix")
	}
}

func TestCholeskyJittered(t *testing.T) {
	// A singular PSD matrix (rank 1): plain Cholesky fails, jittered succeeds.
	a := NewMatrixFrom(2, 2, []float64{1, 1, 1, 1})
	l, jit, err := CholeskyJittered(a, 1e-3)
	if err != nil {
		t.Fatalf("CholeskyJittered: %v", err)
	}
	if jit <= 0 {
		t.Errorf("expected nonzero jitter, got %g", jit)
	}
	rec := l.Mul(l.T())
	if d := rec.MaxAbsDiff(a); d > 1e-2 {
		t.Errorf("jittered reconstruction too far: %g", d)
	}
	// On an SPD matrix it must not jitter at all.
	spd := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	_, jit, err = CholeskyJittered(spd, 1e-3)
	if err != nil || jit != 0 {
		t.Errorf("SPD case: jit=%g err=%v, want 0,nil", jit, err)
	}
}

func TestTriangularSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveSPD(a, b)
		if err != nil {
			t.Fatalf("SolveSPD: %v", err)
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], x[i])
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1})
	if !a.IsSymmetric(0) {
		t.Errorf("symmetric matrix not detected")
	}
	a.Set(0, 1, 2.5)
	if a.IsSymmetric(1e-9) {
		t.Errorf("asymmetric matrix not detected")
	}
	if NewMatrix(2, 3).IsSymmetric(0) {
		t.Errorf("non-square matrix reported symmetric")
	}
}

// Property: for any random SPD matrix, Cholesky succeeds and reconstructs.
func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return l.Mul(l.T()).MaxAbsDiff(a) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square, well-conditioned system: LS must reproduce the exact solution.
	a := NewMatrixFrom(3, 3, []float64{2, 0, 1, 0, 3, -1, 1, -1, 4})
	want := []float64{1, -2, 0.5}
	b := a.MulVec(want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 3 + 2x with noise-free data plus one outlier-free check that
	// the residual is orthogonal to the column space.
	rng := rand.New(rand.NewSource(3))
	n := 50
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 3 + 2*x
	}
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if !almostEq(got[0], 3, 1e-9) || !almostEq(got[1], 2, 1e-9) {
		t.Errorf("coefficients = %v, want [3 2]", got)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Errorf("expected error for underdetermined system")
	}
	b := NewMatrix(3, 2) // rank deficient (all zeros)
	if _, err := LeastSquares(b, []float64{1, 2, 3}); err == nil {
		t.Errorf("expected error for rank-deficient matrix")
	}
	if _, err := LeastSquares(Identity(2), []float64{1}); err == nil {
		t.Errorf("expected error for rhs length mismatch")
	}
}

func TestPolyFitRecovers(t *testing.T) {
	// Property: PolyFit recovers polynomials it is given, for random coeffs.
	f := func(c0, c1, c2 float64) bool {
		c0 = math.Mod(c0, 10)
		c1 = math.Mod(c1, 10)
		c2 = math.Mod(c2, 10)
		xs := make([]float64, 12)
		ys := make([]float64, 12)
		for i := range xs {
			x := float64(i)/4 - 1.5
			xs[i] = x
			ys[i] = c0 + c1*x + c2*x*x
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		return almostEq(got[0], c0, 1e-8) && almostEq(got[1], c1, 1e-8) && almostEq(got[2], c2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPolyEval(t *testing.T) {
	// 1 + 2x + 3x² at x=2 → 17
	if got := PolyEval([]float64{1, 2, 3}, 2); got != 17 {
		t.Errorf("PolyEval = %g, want 17", got)
	}
	if got := PolyEval(nil, 5); got != 0 {
		t.Errorf("PolyEval(nil) = %g, want 0", got)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Errorf("expected length-mismatch error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Errorf("expected too-few-points error")
	}
}

// refCholesky is the row-at-a-time loop Cholesky replaced: the bitwise
// reference for the four-row kernel.
func refCholesky(a *Matrix) *Matrix {
	n := a.rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s/dj)
		}
	}
	return l
}

// TestCholeskyBitwise pins the four-row Cholesky bitwise to the
// row-at-a-time loop at sizes covering every n mod 4, so the remainder rows
// below each pivot take every path.
func TestCholeskyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 17, 64, 131} {
		a := randomSPD(rng, n)
		got, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := refCholesky(a)
		for i, v := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(v) {
				t.Fatalf("n=%d: L(%d,%d) = %v, reference %v", n, i/n, i%n, got.data[i], v)
			}
		}
	}
}

// BenchmarkCholesky factors a 1024×1024 SPD matrix, the dense field's
// covariance size at 1 024 gates.
func BenchmarkCholesky(b *testing.B) {
	a := randomSPD(rand.New(rand.NewSource(1)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}
