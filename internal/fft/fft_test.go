package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"leakest/internal/stats"
)

// naiveDFT is the O(n²) reference both transforms are checked against.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		acc := complex(0, 0)
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j*k) / float64(n)
			acc += x[j] * cmplx.Rect(1, ang)
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	rng := stats.NewRNG(seed, "fft-test")
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDev(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		for _, inverse := range []bool{false, true} {
			x := randComplex(n, int64(n))
			want := naiveDFT(x, inverse)
			if err := Transform(x, inverse); err != nil {
				t.Fatal(err)
			}
			if d := maxDev(x, want); d > 1e-10*float64(n) {
				t.Errorf("n=%d inverse=%v: max deviation %g", n, inverse, d)
			}
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	n := 128
	x := randComplex(n, 7)
	orig := append([]complex128(nil), x...)
	if err := Transform(x, false); err != nil {
		t.Fatal(err)
	}
	if err := Transform(x, true); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := cmplx.Abs(x[i]/complex(float64(n), 0) - orig[i]); d > 1e-12 {
			t.Fatalf("round trip deviates by %g at %d", d, i)
		}
	}
}

func TestTransformRejectsNonPow2(t *testing.T) {
	if err := Transform(make([]complex128, 3), false); err == nil {
		t.Error("length 3 accepted")
	}
	if err := Transform(nil, false); err == nil {
		t.Error("empty input accepted")
	}
	if err := TransformReal(make([]complex128, 6), make([]float64, 6)); err == nil {
		t.Error("real length 6 accepted")
	}
	if err := TransformReal(make([]complex128, 4), make([]float64, 8)); err == nil {
		t.Error("mismatched real buffers accepted")
	}
}

func TestTransformRealMatchesComplex(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		rng := stats.NewRNG(int64(n), "fft-real")
		src := make([]float64, n)
		cx := make([]complex128, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			cx[i] = complex(src[i], 0)
		}
		dst := make([]complex128, n)
		if err := TransformReal(dst, src); err != nil {
			t.Fatal(err)
		}
		if err := Transform(cx, false); err != nil {
			t.Fatal(err)
		}
		if d := maxDev(dst, cx); d > 1e-11*float64(n) {
			t.Errorf("n=%d: real transform deviates from complex by %g", n, d)
		}
	}
}

func TestTransform2DMatchesNaive(t *testing.T) {
	rows, cols := 4, 8
	x := randComplex(rows*cols, 3)
	// Naive separable reference: DFT rows, then columns.
	want := make([]complex128, rows*cols)
	copy(want, x)
	for r := 0; r < rows; r++ {
		copy(want[r*cols:(r+1)*cols], naiveDFT(want[r*cols:(r+1)*cols], false))
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := range col {
			col[r] = want[r*cols+c]
		}
		for r, v := range naiveDFT(col, false) {
			want[r*cols+c] = v
		}
	}
	if err := Transform2D(x, rows, cols, false); err != nil {
		t.Fatal(err)
	}
	if d := maxDev(x, want); d > 1e-10 {
		t.Errorf("2-D transform deviates from naive by %g", d)
	}
}

func TestTransform2DIntoMatchesTransform2D(t *testing.T) {
	rows, cols := 8, 2*colBlock // exercises the column-block loop
	a := randComplex(rows*cols, 11)
	b := append([]complex128(nil), a...)
	if err := Transform2D(a, rows, cols, true); err != nil {
		t.Fatal(err)
	}
	// The scratch argument is unused, so even none is enough.
	if err := Transform2DInto(b, rows, cols, true, nil); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scratch variant differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if err := Transform2D(b, 3, cols, false); err == nil {
		t.Error("non-pow2 rows accepted")
	}
	if err := Transform2D(b[:5], rows, cols, false); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestTransform2DBatchBitwise pins the batch-invariance and pruning
// contracts: every member of a batched transform must be bitwise identical
// to the reference 2-D transform of the same data (ref2D), at every batch
// size and for odd and even batches alike, and a transform pruned to
// keepCols columns must hold the full transform's values bitwise in those
// columns.
func TestTransform2DBatchBitwise(t *testing.T) {
	for _, dims := range [][2]int{{1, 8}, {4, 4}, {8, 2}, {16, 32}, {32, 16}, {16, 64}, {8, 256}} {
		rows, cols := dims[0], dims[1]
		stride := rows * cols
		for _, batch := range []int{1, 2, 3, 5, 8} {
			for _, keep := range []int{1, 3, cols/2 + 1, cols} {
				if keep > cols || (keep != cols && batch != 1 && batch != 3) {
					continue
				}
				for _, inverse := range []bool{false, true} {
					src := randComplex(batch*stride, int64(rows*1000+cols*10+batch))
					got := append([]complex128(nil), src...)
					if err := Transform2DBatchInto(got, batch, rows, cols, keep, inverse); err != nil {
						t.Fatal(err)
					}
					for b := 0; b < batch; b++ {
						want := append([]complex128(nil), src[b*stride:(b+1)*stride]...)
						ref2D(want, rows, cols, inverse)
						for k := range want {
							if k%cols >= keep {
								continue
							}
							if !sameBits(got[b*stride+k], want[k]) {
								t.Fatalf("%dx%d batch=%d keep=%d inverse=%v member %d: point %d differs bitwise (%v vs %v)",
									rows, cols, batch, keep, inverse, b, k, got[b*stride+k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestTransform2DBatchRejects pins the batch validation errors.
func TestTransform2DBatchRejects(t *testing.T) {
	x := make([]complex128, 32)
	if err := Transform2DBatchInto(x, 0, 4, 4, 4, false); err == nil {
		t.Error("batch 0 must be rejected")
	}
	if err := Transform2DBatchInto(x, 3, 4, 4, 4, false); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if err := Transform2DBatchInto(x[:18], 2, 3, 3, 3, false); err == nil {
		t.Error("non-power-of-two dims must be rejected")
	}
	for _, keep := range []int{-1, 0, 5} {
		if err := Transform2DBatchInto(x, 2, 4, 4, keep, false); err == nil {
			t.Errorf("keepCols %d must be rejected", keep)
		}
	}
	for _, span := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if err := TransformColumns(x, 2, 4, 4, span[0], span[1], false); err == nil {
			t.Errorf("column span %v must be rejected", span)
		}
	}
}

// refTransform is the stage-by-stage radix-2 loop Transform replaced, with
// the twiddle walked by repeated multiplication inside the butterfly loop.
// It is the bitwise reference for the fused, table-driven Transform.
func refTransform(x []complex128, inverse bool) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		half := length >> 1
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			for k := start; k < start+half; k++ {
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
				w *= wl
			}
		}
	}
}

// ref2D is the reference 2-D transform: refTransform over every row, then
// over every column.
func ref2D(x []complex128, rows, cols int, inverse bool) {
	for r := 0; r < rows; r++ {
		refTransform(x[r*cols:(r+1)*cols], inverse)
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := range col {
			col[r] = x[r*cols+c]
		}
		refTransform(col, inverse)
		for r, v := range col {
			x[r*cols+c] = v
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// withZeros returns random data in which every third point has an exact
// zero part of either sign, as the clamped modes of a pair spectrum do.
func withZeros(n int, seed int64) []complex128 {
	x := randComplex(n, seed)
	for i := range x {
		switch i % 6 {
		case 0:
			x[i] = 0
		case 3:
			x[i] = complex(math.Copysign(0, -1), imag(x[i]))
		}
	}
	return x
}

// TestTransformBitwiseRadix2 pins Transform bitwise to the radix-2
// reference loop at every power-of-two length up to 2¹⁴, in both
// directions: the fused stages and the twiddle table must not move one bit
// of any output, signed zeros included.
func TestTransformBitwiseRadix2(t *testing.T) {
	for n := 1; n <= 1<<14; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			src := withZeros(n, int64(n))
			got := append([]complex128(nil), src...)
			want := append([]complex128(nil), src...)
			if err := Transform(got, inverse); err != nil {
				t.Fatal(err)
			}
			refTransform(want, inverse)
			for k := range want {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("n=%d inverse=%v: point %d is %v, reference %v", n, inverse, k, got[k], want[k])
				}
			}
		}
	}
}

// TestTwiddleCacheConcurrent transforms mixed lengths from several
// goroutines at once, starting from empty twiddle and bit-reversal caches
// so that tables are built while others read them; every result must match the reference
// loop bitwise. Run under -race it also pins the cache's publication.
func TestTwiddleCacheConcurrent(t *testing.T) {
	for k := range reversals {
		reversals[k].Store(nil)
		twiddles[0][k].Store(nil)
		twiddles[1][k].Store(nil)
	}
	const goroutines, rounds = 6, 20
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 1 << ((g + 3*r) % 12)
				inverse := (g+r)%2 == 1
				src := withZeros(n, int64(g*rounds+r))
				got := append([]complex128(nil), src...)
				if err := Transform(got, inverse); err != nil {
					errs <- err.Error()
					return
				}
				refTransform(src, inverse)
				for k := range src {
					if !sameBits(got[k], src[k]) {
						errs <- fmt.Sprintf("goroutine %d: n=%d inverse=%v point %d differs", g, n, inverse, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestTransformAllocs pins that 1-D and batched 2-D transforms at sizes
// seen before allocate nothing: the table lookups neither box nor copy.
func TestTransformAllocs(t *testing.T) {
	x := randComplex(2*32*256, 5)
	if err := Transform2DBatchInto(x, 2, 32, 256, 100, true); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { _ = Transform(x[:256], true) }); a != 0 {
		t.Errorf("Transform allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { _ = Transform2DBatchInto(x, 2, 32, 256, 100, true) }); a != 0 {
		t.Errorf("Transform2DBatchInto allocates %v times per call", a)
	}
}

// BenchmarkTransform2D times the inverse 2-D transform the grid trial body
// runs, at the torus sizes of the benchmark grids: in full, and pruned to
// the grid columns the body keeps (a 100-column grid on the 256² torus,
// 141 and 200 columns on 512², a 1000-column grid on 2048²).
func BenchmarkTransform2D(b *testing.B) {
	for _, c := range []struct{ n, keep int }{
		{256, 256}, {256, 100}, {512, 512}, {512, 141}, {512, 200}, {2048, 2048}, {2048, 1000},
	} {
		b.Run(fmt.Sprintf("%d/keep=%d", c.n, c.keep), func(b *testing.B) {
			src := randComplex(c.n*c.n, 1)
			x := append([]complex128(nil), src...)
			if err := Transform2DBatchInto(x, 1, c.n, c.n, c.keep, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh input each time: the unnormalized transform would
				// otherwise grow the data by n² per call until it overflows.
				b.StopTimer()
				copy(x, src)
				b.StartTimer()
				if err := Transform2DBatchInto(x, 1, c.n, c.n, c.keep, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
