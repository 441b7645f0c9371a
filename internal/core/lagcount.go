package core

import (
	"math"
	"math/cmplx"

	"leakest/internal/fft"
	"leakest/internal/lkerr"
	"leakest/internal/placement"
)

// lagPlan holds what both lag-count producers share: the folded lag
// classes [0, rows)×[0, cols), one per (|Δrow|, |Δcol|); the grid row and
// column of every gate, by type; and the FFT producer's tr×tc torus,
// NextPow2(2·rows−1)×NextPow2(2·cols−1), on which every signed lag has its
// own cell, so the circular correlation never wraps one lag onto another.
type lagPlan struct {
	rows, cols, tr, tc int
	rs, cs             [][]int32
}

// newLagPlan indexes gate sites by type; gt maps gate → type index.
func newLagPlan(grid placement.Grid, pl *placement.Placement, gt []int, types int) *lagPlan {
	p := &lagPlan{
		rows: grid.Rows, cols: grid.Cols,
		tr: fft.NextPow2(2*grid.Rows - 1), tc: fft.NextPow2(2*grid.Cols - 1),
		rs: make([][]int32, types), cs: make([][]int32, types),
	}
	for g, t := range gt {
		r, c := pl.RowCol(g)
		p.rs[t] = append(p.rs[t], int32(r))
		p.cs[t] = append(p.cs[t], int32(c))
	}
	return p
}

// wantTotal is the number of gate pairs type pair (a, b ≥ a) counts over
// all lag classes: n_a·n_b (a-gate, b-gate) pairs, or n_a(n_a−1) ordered
// pairs of distinct gates on the diagonal.
func (p *lagPlan) wantTotal(a, b int) int64 {
	na, nb := int64(len(p.rs[a])), int64(len(p.rs[b]))
	if a == b {
		return na * (na - 1)
	}
	return na * nb
}

// fftCost estimates the FFT producer's work for t types in direct pair
// increments: per packed job, one forward and one inverse transform pruned
// as in transform, at 0.6 increments per point and radix-2 stage. On a
// 2-core x86-64 VM (go1.24) one point-stage measured 0.55–0.7 increments
// over the Fig. 6 sizes and the ISCAS designs; with 8 types on a square
// random placement the FFT producer takes over near 6 000 gates, where the
// torus is 256².
func (p *lagPlan) fftCost(t int) float64 {
	jobs := 0
	for a := 0; a < t; a++ {
		jobs += (t - a + 1) / 2
	}
	rowPass := float64(p.rows+p.tr) * float64(p.tc) * math.Log2(float64(p.tc))
	colPass := float64(p.tc+2*p.cols-1) * float64(p.tr) * math.Log2(float64(p.tr))
	return 0.6 * float64(jobs) * (rowPass + colPass)
}

// lagEmit receives output lag row dr of type pair (a, b ≥ a): counts[dc]
// is the exact number of gate pairs at (|Δrow|, |Δcol|) = (dr, dc), counted
// as in wantTotal. The slice is reused after emit returns.
type lagEmit func(b, dr int, counts []int64) error

// clearStack zeroes the 8 KiB of stack below the caller's frame, where a
// lag-count task's frames go, before the task runs. Goroutine stacks are
// reused, so that memory can still hold an earlier exact-truth call's
// frames, with pointers to its torus buffers. When the collector preempts
// a task inside a kernel loop it scans that frame conservatively, and a
// stale slot keeps the finished call's 1 MiB torus (at 256²) alive for
// another cycle. On leakbench truth-placed (2-core VM) the peak live heap
// read one torus higher in over half the runs without this (none with
// asynchronous preemption off), and at its usual level in every run with
// it. No unit test reproduces the retention: it needs the collector to
// preempt a task exactly where a stale slot lies.
//
// The size: a task's deepest chain, fftRow → transform →
// fft.TransformColumns → columnPass → fusedLanes, takes under 2 KiB of
// frames on amd64 (go build -gcflags=-S); 8 KiB also covers the registers
// an asynchronous preemption saves below the interrupted frame. The cost
// is one stack growth per worker per call and an 8 KiB clear per task,
// nothing next to a lag row.
//
//go:noinline
func clearStack() {
	var pad [8 << 10]byte
	keepStack(pad[:])
}

//go:noinline
func keepStack([]byte) {}

// lagWorker is one worker's scratch, allocated on first use.
type lagWorker struct {
	counts    []int64      // direct: one type pair's class counts
	tor, half []complex128 // fft: the torus and F_a's half-plane spectrum
	row       []int64      // fft: one folded output row
}

// directRow enumerates the gate pairs of every type pair (a, b ≥ a) into
// the class-count array, then emits it row by row: Σ_b n_a·n_b increments,
// yielding the same integers as fftRow.
func (w *lagWorker) directRow(p *lagPlan, a, types int, emit lagEmit) error {
	if w.counts == nil {
		w.counts = make([]int64, p.rows*p.cols)
	}
	ra, ca := p.rs[a], p.cs[a]
	for b := a; b < types; b++ {
		counts := w.counts
		clear(counts)
		if b == a {
			for i := range ra {
				for j := i + 1; j < len(ra); j++ {
					counts[absDiff(ra[i], ra[j])*p.cols+absDiff(ca[i], ca[j])] += 2
				}
			}
		} else {
			rb, cb := p.rs[b], p.cs[b]
			for i := range ra {
				r, c := ra[i], ca[i]
				for j := range rb {
					counts[absDiff(r, rb[j])*p.cols+absDiff(c, cb[j])]++
				}
			}
		}
		for dr := 0; dr < p.rows; dr++ {
			if err := emit(b, dr, counts[dr*p.cols:(dr+1)*p.cols]); err != nil {
				return err
			}
		}
	}
	return nil
}

// absDiff is |x − y|, branch-free: the signs of a random placement's lags
// are unpredictable.
func absDiff(x, y int32) int {
	d := int(x) - int(y)
	m := d >> 63
	return (d ^ m) - m
}

// fftRow produces every type pair (a, b ≥ a) from FFT cross-correlations
// of the type-indicator images I_t. Job b = a, a+2, … packs I_b + i·I_{b+1}
// into one forward transform Z = F_b + i·F_{b+1}; the first job also keeps
// the half plane of F_a. Multiplying Z in place by conj(F_a) and inverting
// gives P_ab + i·P_{a,b+1}, two real correlations from one inverse — with
// t types, Σ_a ⌈(t−a)/2⌉ jobs of two transforms each.
func (w *lagWorker) fftRow(p *lagPlan, a, types int, emit lagEmit) error {
	if w.tor == nil {
		w.tor = make([]complex128, p.tr*p.tc)
		w.half = make([]complex128, p.tr*(p.tc/2+1))
		w.row = make([]int64, p.cols)
	}
	for b := a; b < types; b += 2 {
		parts := min(2, types-b)
		w.load(p, b, parts)
		if err := w.transform(p, false); err != nil {
			return err
		}
		if b == a {
			w.extractHalf(p)
		}
		w.multiplyConjHalf(p)
		if err := w.transform(p, true); err != nil {
			return err
		}
		var total [2]int64
		for dr := 0; dr < p.rows; dr++ {
			for part := 0; part < parts; part++ {
				if err := p.foldRow(w.tor, part == 1, dr, w.row); err != nil {
					return err
				}
				if b+part == a && dr == 0 {
					w.row[0] -= int64(len(p.rs[a])) // the n_a self-pairs
				}
				for _, k := range w.row {
					total[part] += k
				}
				if err := emit(b+part, dr, w.row); err != nil {
					return err
				}
			}
		}
		for part := 0; part < parts; part++ {
			if want := p.wantTotal(a, b+part); total[part] != want {
				return lkerr.New(lkerr.Numerical, "core.TrueStats",
					"lag counts of type pair (%d, %d) total %d, want %d", a, b+part, total[part], want)
			}
		}
	}
	return nil
}

// load writes I_b (+ i·I_{b+1} when parts = 2) into the zeroed torus. The
// images count gates per site, so gates sharing a site still pair at lag 0,
// as in directRow.
func (w *lagWorker) load(p *lagPlan, b, parts int) {
	clear(w.tor)
	for part, unit := range [2]complex128{1, 1i} {
		if part == parts {
			break
		}
		for i, r := range p.rs[b+part] {
			w.tor[int(r)*p.tc+int(p.cs[b+part][i])] += unit
		}
	}
}

// transform is the unnormalized 2-D DFT of the torus, pruned: the forward
// row pass skips rows ≥ rows, which the images leave zero, and the inverse
// column pass covers only the columns foldRow reads, [0, cols) and
// (tc−cols, tc).
func (w *lagWorker) transform(p *lagPlan, inverse bool) error {
	m, n := p.tr, p.tc
	rows, spans := p.rows, [2][2]int{{0, n}}
	if inverse {
		rows, spans = m, [2][2]int{{0, p.cols}, {n - p.cols + 1, n}}
	}
	for r := 0; r < rows; r++ {
		if err := fft.Transform(w.tor[r*n:(r+1)*n], inverse); err != nil {
			return err
		}
	}
	for _, s := range spans {
		if err := fft.TransformColumns(w.tor, 1, m, n, s[0], s[1], inverse); err != nil {
			return err
		}
	}
	return nil
}

// extractHalf keeps F_a(k) = (Z(k) + conj(Z(−k)))/2, the spectrum of the
// packed image's real part, on the half plane kc ≤ tc/2; the other half is
// F_a(−k) = conj(F_a(k)).
func (w *lagWorker) extractHalf(p *lagPlan) {
	m, n, h := p.tr, p.tc, p.tc/2+1
	for u := 0; u < m; u++ {
		for v := 0; v < h; v++ {
			w.half[u*h+v] = (w.tor[u*n+v] + cmplx.Conj(w.tor[(m-u)%m*n+(n-v)%n])) * 0.5
		}
	}
}

// multiplyConjHalf multiplies the torus in place by conj(F_a).
func (w *lagWorker) multiplyConjHalf(p *lagPlan) {
	m, n, h := p.tr, p.tc, p.tc/2+1
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			if v < h {
				w.tor[u*n+v] *= cmplx.Conj(w.half[u*h+v])
			} else {
				w.tor[u*n+v] *= w.half[(m-u)%m*h+n-v]
			}
		}
	}
}

// foldRow writes counts[dc], the rounded inverse transform (its imaginary
// part when imagPart) summed over the distinct signed lags (±dr, ±dc). A
// value further than 1/4 from its rounding means round-off has outgrown
// what rounding absorbs, and the counts are refused.
func (p *lagPlan) foldRow(tor []complex128, imagPart bool, dr int, counts []int64) error {
	scale := 1 / float64(p.tr*p.tc)
	srs, nr := signedLags(dr, p.tr)
	for dc := range counts {
		scs, nc := signedLags(dc, p.tc)
		var k int64
		for _, sr := range srs[:nr] {
			for _, sc := range scs[:nc] {
				v := real(tor[sr*p.tc+sc])
				if imagPart {
					v = imag(tor[sr*p.tc+sc])
				}
				v *= scale
				x := math.Round(v)
				if !(math.Abs(v-x) < 0.25) {
					return lkerr.New(lkerr.Numerical, "core.TrueStats",
						"lag count %g at (%d, %d) is not within 1/4 of an integer", v, dr, dc)
				}
				k += int64(x)
			}
		}
		counts[dc] = k
	}
	return nil
}

// signedLags returns the torus indices of lags +d and −d on a length-n
// axis, and how many of them are distinct.
func signedLags(d, n int) ([2]int, int) {
	if d == 0 {
		return [2]int{0, 0}, 1
	}
	return [2]int{d, n - d}, 2
}
