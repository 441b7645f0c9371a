// Package fft is a dependency-free iterative radix-2 fast Fourier
// transform used by the circulant-embedding Monte-Carlo sampler
// (internal/randvar) and the exact truth's lag counts (internal/core): 1-D
// complex and real transforms plus a column-blocked 2-D transform over
// row-major buffers whose column pass can be pruned to the columns a
// caller reads. Twiddle and bit-reversal tables are cached per length, so
// repeated transforms allocate nothing.
//
// Transforms are unnormalized in both directions — Forward computes
// X[k] = Σ_j x[j]·e^(−2πi·jk/N) and the inverse uses the conjugated kernel
// without the 1/N factor — so that round-tripping scales by N and callers
// fold the normalization into whatever per-point factor they already apply
// (the sampler bakes 1/(M·N) into its eigenvalue scale).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// NextPow2 returns the smallest power of two ≥ n (and 1 for n ≤ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Transform computes the in-place DFT of x (forward for inverse=false,
// conjugated kernel for inverse=true; both unnormalized). len(x) must be a
// power of two.
//
// It is an iterative Cooley–Tukey transform: a bit-reversal permutation,
// then the log₂ n radix-2 stages of halves h = 1, 2, 4, …, n/2 (see
// butterflies).
func Transform(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	sw := bitReversalSwaps(n)
	for k := 0; k+1 < len(sw); k += 2 {
		i, j := sw[k], sw[k+1]
		x[i], x[j] = x[j], x[i]
	}
	butterflies(x, twiddleTable(n, inverse))
	return nil
}

// butterflies runs the radix-2 stages over the bit-reversed x, with tw
// from twiddleTable(len(x), ·). The butterflies of stage h multiply by the
// twiddles w_k = w_{k−1}·e^(∓iπ/h), w_0 = 1, read from the table; the
// accumulated rotation error over the longest stage is O(n·ε), far below
// the sampler's tolerance. Stages run in fused pairs (h, 2h) over the
// closed quadruples {k, k+h, k+2h, k+3h}, each quadruple's four radix-2
// butterflies done while it is in registers, so the data is swept half as
// often; an odd stage count runs the h = 1 stage alone first. Every
// butterfly still computes u ± v·w_k on the same float64 operands as the
// stage-by-stage loop, so the fusion changes no output bit.
func butterflies(x, tw []complex128) {
	n := len(x)
	h := 1
	if bits.TrailingZeros(uint(n))%2 == 1 {
		w := tw[0] // the h = 1 stage's only twiddle, 1
		for s := 0; s+1 < n; s += 2 {
			u, v := x[s], x[s+1]*w
			x[s], x[s+1] = u+v, u-v
		}
		h = 2
	}
	for ; h < n; h *= 4 {
		fusedStages(x, h, tw[h-1:2*h-1], tw[2*h-1:4*h-1])
	}
}

// fusedStages runs radix-2 stages h and 2h over x. w1 holds stage h's h
// twiddles and w2 stage 2h's 2h twiddles.
func fusedStages(x []complex128, h int, w1, w2 []complex128) {
	w1, w2lo, w2hi := w1[:h], w2[:h], w2[h:2*h]
	for s := 0; s+4*h <= len(x); s += 4 * h {
		a := x[s : s+h]
		b, c, d := x[s+h : s+2*h][:len(a)], x[s+2*h : s+3*h][:len(a)], x[s+3*h : s+4*h][:len(a)]
		w1, w2lo, w2hi := w1[:len(a)], w2lo[:len(a)], w2hi[:len(a)]
		for k := range a {
			// Stage h: butterflies (a, b) and (c, d) by w1[k].
			w := w1[k]
			u0, v0 := a[k], b[k]*w
			u1, v1 := c[k], d[k]*w
			a0, b0 := u0+v0, u0-v0
			c0, d0 := u1+v1, u1-v1
			// Stage 2h: butterflies (a, c) by w2[k] and (b, d) by w2[k+h].
			v2, v3 := c0*w2lo[k], d0*w2hi[k]
			a[k], c[k] = a0+v2, a0-v2
			b[k], d[k] = b0+v3, b0-v3
		}
	}
}

// twiddles caches one table per direction (index 1 inverse) and log₂ n,
// and reversals one bit-reversal swap list per log₂ n. Tables are immutable
// once published, so concurrent transforms share them; two goroutines
// racing to build the same table build identical ones, and either may win.
var (
	twiddles  [2][bits.UintSize]atomic.Pointer[[]complex128]
	reversals [bits.UintSize]atomic.Pointer[[]int32]
)

// bitReversalSwaps returns the length-n bit-reversal permutation as the
// flat list i₀, j₀, i₁, j₁, … of the index pairs it exchanges (i < j, j the
// bit reverse of i), in increasing i: a branch-free swap loop, where
// walking all n indices and testing i < j mispredicts about half the time.
// Lookups after the first allocate nothing.
func bitReversalSwaps(n int) []int32 {
	lg := bits.TrailingZeros(uint(n))
	slot := &reversals[lg]
	if sw := slot.Load(); sw != nil {
		return *sw
	}
	var sw []int32
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> (bits.UintSize - lg)); i < j {
			sw = append(sw, int32(i), int32(j))
		}
	}
	slot.Store(&sw)
	return sw
}

// twiddleTable returns the twiddles of every stage of a length-n
// transform: stage h (twiddles e^(∓iπk/h), k < h) occupies [h−1, 2h−1), so
// the table holds n−1 values. Each stage is built by the recurrence
// w_k = w_{k−1}·wl from w_0 = 1 rather than by one cmplx.Rect per k: the
// recorded Monte-Carlo streams were drawn with the recurrence's rounding,
// so the table must reproduce it bit for bit. Lookups after the first
// allocate nothing.
func twiddleTable(n int, inverse bool) []complex128 {
	dir := 0
	if inverse {
		dir = 1
	}
	slot := &twiddles[dir][bits.TrailingZeros(uint(n))]
	if tw := slot.Load(); tw != nil {
		return *tw
	}
	tw := make([]complex128, n-1)
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		half := length >> 1
		stage := tw[half-1 : length-1]
		w := complex(1, 0)
		for k := range stage {
			stage[k] = w
			w *= wl
		}
	}
	slot.Store(&tw)
	return tw
}

// TransformReal computes the forward DFT of the real sequence src into the
// full length-N complex spectrum dst (conjugate-symmetric: dst[N−k] =
// conj(dst[k])) via one half-size complex transform. len(dst) must equal
// len(src), a power of two.
func TransformReal(dst []complex128, src []float64) error {
	n := len(src)
	if len(dst) != n {
		return fmt.Errorf("fft: real transform dst length %d != src length %d", len(dst), n)
	}
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if n == 1 {
		dst[0] = complex(src[0], 0)
		return nil
	}
	// Pack even/odd samples into a half-size complex sequence, transform,
	// then split the spectrum into even/odd parts E and O with
	// X[k] = E[k] + e^(−2πik/N)·O[k].
	h := n / 2
	z := make([]complex128, h)
	for k := 0; k < h; k++ {
		z[k] = complex(src[2*k], src[2*k+1])
	}
	if err := Transform(z, false); err != nil {
		return err
	}
	dst[0] = complex(real(z[0])+imag(z[0]), 0)
	dst[h] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k < h; k++ {
		zk, zm := z[k], cmplx.Conj(z[h-k])
		e := (zk + zm) / 2
		o := (zk - zm) / complex(0, 2)
		dst[k] = e + cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))*o
	}
	for k := 1; k < h; k++ {
		dst[n-k] = cmplx.Conj(dst[k])
	}
	return nil
}

// colBlock is the number of adjacent columns the column pass transforms
// together: 64 complex128s are 1 KiB of each row, so a block of a 512-row
// torus (512 KiB) stays in a core's L2 cache across all its stages.
const colBlock = 64

// Transform2D computes the in-place 2-D DFT of the row-major rows×cols
// buffer x: every row, then every column. Both dimensions must be powers
// of two. It allocates nothing after the first transform of its sizes.
func Transform2D(x []complex128, rows, cols int, inverse bool) error {
	return Transform2DBatchInto(x, 1, rows, cols, cols, inverse)
}

// Scratch2DLen returns 0: the 2-D transforms work in place and need no
// scratch. It and Transform2DInto's scratch argument remain for callers
// that still size and pass one.
func Scratch2DLen(rows, cols int) int { return 0 }

// Transform2DInto is Transform2D; scratch is not used.
func Transform2DInto(x []complex128, rows, cols int, inverse bool, scratch []complex128) error {
	return Transform2D(x, rows, cols, inverse)
}

// Transform2DBatchInto computes the in-place 2-D DFT of batch row-major
// rows×cols buffers stored contiguously in x (member b occupies
// x[b·rows·cols : (b+1)·rows·cols]), pruned to the columns a caller keeps:
// every row is transformed in full, then only columns [0, keepCols) get
// the column pass, so those columns hold bitwise the full transform's
// values and the rest hold row-transformed data. keepCols must lie in
// [1, cols]; keepCols = cols is the full transform. Each member's
// butterflies are exactly those of a standalone Transform2D, so its result
// is bitwise identical at any batch size — the property the Monte Carlo's
// batch-invariance contract rests on.
func Transform2DBatchInto(x []complex128, batch, rows, cols, keepCols int, inverse bool) error {
	if err := check2D(x, batch, rows, cols); err != nil {
		return err
	}
	if keepCols < 1 || keepCols > cols {
		return fmt.Errorf("fft: kept columns %d outside [1, %d]", keepCols, cols)
	}
	for r := 0; r < batch*rows; r++ {
		if err := Transform(x[r*cols:(r+1)*cols], inverse); err != nil {
			return err
		}
	}
	columnPass(x, batch, rows, cols, 0, keepCols, inverse)
	return nil
}

// TransformColumns transforms columns [c0, c1) of each of batch row-major
// rows×cols buffers in x, leaving the other columns untouched: the column
// pass of Transform2DBatchInto, for callers that run their own pruned row
// pass.
func TransformColumns(x []complex128, batch, rows, cols, c0, c1 int, inverse bool) error {
	if err := check2D(x, batch, rows, cols); err != nil {
		return err
	}
	if c0 < 0 || c1 < c0 || c1 > cols {
		return fmt.Errorf("fft: column span [%d, %d) outside [0, %d)", c0, c1, cols)
	}
	columnPass(x, batch, rows, cols, c0, c1, inverse)
	return nil
}

// check2D validates a batch of rows×cols buffers.
func check2D(x []complex128, batch, rows, cols int) error {
	if batch < 1 {
		return fmt.Errorf("fft: batch %d must be positive", batch)
	}
	if len(x) != batch*rows*cols {
		return fmt.Errorf("fft: buffer length %d != %d×%d×%d", len(x), batch, rows, cols)
	}
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: dimensions %d×%d are not powers of two", rows, cols)
	}
	return nil
}

// columnPass transforms columns [c0, c1) of every member in place, in
// blocks of colBlock adjacent columns. A block runs the column transform on
// all its columns at once: the bit-reversal permutation swaps row
// segments, and each butterfly is applied across the segments' columns
// with the one twiddle it has in every column. Each column thus sees
// exactly Transform's operations on exactly its operands — bitwise its
// standalone transform — while the block stays cache-resident and the
// inner loops run over contiguous memory, with no gather or scatter.
func columnPass(x []complex128, batch, rows, cols, c0, c1 int, inverse bool) {
	sw, tw := bitReversalSwaps(rows), twiddleTable(rows, inverse)
	odd := bits.TrailingZeros(uint(rows))%2 == 1
	for b := 0; b < batch; b++ {
		t := x[b*rows*cols : (b+1)*rows*cols]
		for lo := c0; lo < c1; lo += colBlock {
			hi := min(lo+colBlock, c1)
			seg := func(r int) []complex128 { return t[r*cols+lo : r*cols+hi] }
			for k := 0; k+1 < len(sw); k += 2 {
				p, q := seg(int(sw[k])), seg(int(sw[k+1]))
				q = q[:len(p)]
				for m := range p {
					p[m], q[m] = q[m], p[m]
				}
			}
			h := 1
			if odd {
				w := tw[0]
				for s := 0; s < rows; s += 2 {
					p, q := seg(s), seg(s+1)
					q = q[:len(p)]
					for m := range p {
						u, v := p[m], q[m]*w
						p[m], q[m] = u+v, u-v
					}
				}
				h = 2
			}
			for ; h < rows; h *= 4 {
				w1, w2 := tw[h-1:2*h-1], tw[2*h-1:4*h-1]
				for s := 0; s < rows; s += 4 * h {
					for k := 0; k < h; k++ {
						fusedLanes(seg(s+k), seg(s+k+h), seg(s+k+2*h), seg(s+k+3*h), w1[k], w2[k], w2[k+h])
					}
				}
			}
		}
	}
}

// fusedLanes is fusedStages' quadruple at one k, applied across lanes: for
// every m, stage h's butterflies (a[m], b[m]) and (c[m], d[m]) by w1, then
// stage 2h's (a[m], c[m]) by w2lo and (b[m], d[m]) by w2hi.
func fusedLanes(a, b, c, d []complex128, w1, w2lo, w2hi complex128) {
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	for m := range a {
		u0, v0 := a[m], b[m]*w1
		u1, v1 := c[m], d[m]*w1
		a0, b0 := u0+v0, u0-v0
		c0, d0 := u1+v1, u1-v1
		v2, v3 := c0*w2lo, d0*w2hi
		a[m], c[m] = a0+v2, a0-v2
		b[m], d[m] = b0+v3, b0-v3
	}
}
