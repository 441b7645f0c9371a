package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// lagFixture is one placed design for the lag-count truth tests.
type lagFixture struct {
	name  string
	n     int
	grid  placement.Grid
	hist  map[string]float64
	dense bool // row-major placement instead of random sites
}

func (f lagFixture) build(t *testing.T) (*Model, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	lib := testLib(t)
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	hist := testHist(t)
	if f.hist != nil {
		var err error
		if hist, err = stats.NewHistogram(f.hist); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(77, "lag-truth/"+f.name)
	nl, err := netlist.RandomCircuit(rng, f.name, f.n, 16, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	var pl *placement.Placement
	if f.dense {
		pl, err = placement.RowMajor(f.grid, f.n)
	} else {
		pl, err = placement.Random(rng, f.grid, f.n)
	}
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: f.n, W: f.grid.W(), H: f.grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, testProcess(), spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	return m, nl, pl
}

func gridOf(rows, cols int, siteW, siteH float64) placement.Grid {
	return placement.Grid{Rows: rows, Cols: cols, SiteW: siteW, SiteH: siteH}
}

// lagFixtures covers the shapes the FFT schedule could get wrong: square
// and non-square grids, odd pitch, sparse placements, one type, an odd
// type count, and rows = 65, where 2R−1 = 129 lands just past a power of
// two.
var lagFixtures = []lagFixture{
	{name: "square", n: 400, grid: gridOf(20, 20, 1, 1)},
	{name: "non-square-49x48", n: 2352, grid: gridOf(49, 48, 1, 1), dense: true},
	{name: "odd-pitch", n: 300, grid: gridOf(17, 19, 1.7, 2.3)},
	{name: "sparse", n: 120, grid: gridOf(40, 70, 1, 1)},
	{name: "one-type", n: 250, grid: gridOf(16, 16, 1, 1), hist: map[string]float64{"NAND2_X1": 1}},
	{name: "three-types", n: 280, grid: gridOf(15, 21, 1, 1),
		hist: map[string]float64{"INV_X1": 2, "NAND2_X1": 1, "NOR2_X1": 1}},
	{name: "rows-65", n: 900, grid: gridOf(65, 18, 1, 1)},
}

func boolPtr(b bool) *bool { return &b }

// Both producers must reproduce the serial pair-loop referee: identical
// means, σ within 1e-12 relative (only the summation order differs), and
// bitwise equal to each other.
func TestLagCountTruthMatchesPairLoop(t *testing.T) {
	for _, f := range lagFixtures {
		t.Run(f.name, func(t *testing.T) {
			m, nl, pl := f.build(t)
			wantMean, wantVar := naiveTruthVariance(t, m, nl, pl)
			wantStd := math.Sqrt(wantVar)
			var got [2]Result
			for i, useFFT := range []bool{false, true} {
				res, err := trueStats(context.Background(), m, nl, pl, boolPtr(useFFT))
				if err != nil {
					t.Fatalf("fft=%v: %v", useFFT, err)
				}
				if res.Mean != wantMean {
					t.Errorf("fft=%v: mean %x, referee %x", useFFT, res.Mean, wantMean)
				}
				if rel := math.Abs(res.Std-wantStd) / wantStd; !(rel <= 1e-12) {
					t.Errorf("fft=%v: σ %.17g vs referee %.17g (%.3g relative)", useFFT, res.Std, wantStd, rel)
				}
				got[i] = res
			}
			if got[0].Mean != got[1].Mean || got[0].Std != got[1].Std {
				t.Errorf("producers disagree: direct %+v, fft %+v", got[0], got[1])
			}
		})
	}
}

// collectLagCounts runs one producer over every row type and returns the
// full class-count array of each type pair, keyed [a][b−a].
func collectLagCounts(t *testing.T, nl *netlist.Netlist, pl *placement.Placement, useFFT bool) [][][]int64 {
	t.Helper()
	types := nl.SortedTypes()
	tIdx := map[string]int{}
	for i, typ := range types {
		tIdx[typ] = i
	}
	gt := make([]int, len(nl.Gates))
	for g, gate := range nl.Gates {
		gt[g] = tIdx[gate.Type]
	}
	nt := len(types)
	plan := newLagPlan(pl.Grid, pl, gt, nt)
	out := make([][][]int64, nt)
	var w lagWorker
	for a := 0; a < nt; a++ {
		out[a] = make([][]int64, nt-a)
		for i := range out[a] {
			out[a][i] = make([]int64, plan.rows*plan.cols)
		}
		emit := func(b, dr int, counts []int64) error {
			copy(out[a][b-a][dr*plan.cols:], counts)
			return nil
		}
		var err error
		if useFFT {
			err = w.fftRow(plan, a, nt, emit)
		} else {
			err = w.directRow(plan, a, nt, emit)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// The FFT and direct producers must yield the same integers, class by
// class, for every type pair.
func TestLagCountProducersAgree(t *testing.T) {
	for _, f := range lagFixtures {
		t.Run(f.name, func(t *testing.T) {
			_, nl, pl := f.build(t)
			direct := collectLagCounts(t, nl, pl, false)
			viaFFT := collectLagCounts(t, nl, pl, true)
			for a := range direct {
				for i := range direct[a] {
					for k, want := range direct[a][i] {
						if got := viaFFT[a][i][k]; got != want {
							t.Fatalf("pair (%d, %d) class %d: fft %d, direct %d", a, a+i, k, got, want)
						}
					}
				}
			}
		})
	}
}

// For one type filling the grid, the counts are Eq. 17's
// n_ij = (m−|i|)(k−|j|) times the sign multiplicity of the class.
func TestLagCountsMatchEq17OnFullGrid(t *testing.T) {
	for _, g := range []struct{ rows, cols int }{{1, 7}, {5, 5}, {9, 14}, {33, 17}} {
		n := g.rows * g.cols
		f := lagFixture{name: "full", n: n, grid: gridOf(g.rows, g.cols, 1, 1),
			hist: map[string]float64{"INV_X1": 1}, dense: true}
		_, nl, pl := f.build(t)
		for _, useFFT := range []bool{false, true} {
			counts := collectLagCounts(t, nl, pl, useFFT)[0][0]
			for dr := 0; dr < g.rows; dr++ {
				for dc := 0; dc < g.cols; dc++ {
					mult := int64(4)
					switch {
					case dr == 0 && dc == 0:
						mult = 0
					case dr == 0 || dc == 0:
						mult = 2
					}
					want := mult * int64(g.rows-dr) * int64(g.cols-dc)
					if got := counts[dr*g.cols+dc]; got != want {
						t.Errorf("%d×%d fft=%v: class (%d, %d) = %d, Eq. 17 %d",
							g.rows, g.cols, useFFT, dr, dc, got, want)
					}
				}
			}
		}
	}
}

// TrueStats is bitwise invariant in the worker count, on both producers.
func TestLagCountTruthWorkerInvariance(t *testing.T) {
	m, nl, pl := lagFixture{name: "workers", n: 600, grid: gridOf(25, 25, 1, 1)}.build(t)
	for _, useFFT := range []bool{false, true} {
		var ref Result
		for i, w := range []int{1, 2, 3, 8} {
			m.Workers = w
			res, err := trueStats(context.Background(), m, nl, pl, boolPtr(useFFT))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res
			} else if res.Mean != ref.Mean || res.Std != ref.Std {
				t.Errorf("fft=%v workers=%d: (%x, %x), serial (%x, %x)",
					useFFT, w, res.Mean, res.Std, ref.Mean, ref.Std)
			}
		}
	}
}

// A transform output further than 1/4 from an integer is refused as a
// Numerical error rather than rounded into a wrong count.
func TestLagCountResidualGuard(t *testing.T) {
	p := &lagPlan{rows: 3, cols: 3, tr: 8, tc: 8}
	tor := make([]complex128, p.tr*p.tc)
	scale := float64(p.tr * p.tc)
	tor[1*p.tc+2] = complex(5*scale, 2*scale)
	counts := make([]int64, p.cols)
	if err := p.foldRow(tor, false, 1, counts); err != nil || counts[2] != 5 {
		t.Fatalf("exact row: counts %v, err %v", counts, err)
	}
	tor[(p.tr-1)*p.tc+2] = complex(0.3*scale, 0)
	err := p.foldRow(tor, false, 1, counts)
	if !errors.Is(err, lkerr.ErrNumerical) || !strings.Contains(err.Error(), "1/4") {
		t.Errorf("residual 0.3 gave %v, want Numerical", err)
	}
	if err := p.foldRow(tor, true, 1, counts); err != nil || counts[2] != 2 {
		t.Errorf("imaginary part: counts %v, err %v", counts, err)
	}
}

// Folded counts that do not total n_a·n_b (n_a(n_a−1) on the diagonal)
// are refused as a Numerical error. Here one gate is moved a column past
// the grid: its pairs at |Δcol| = cols land outside the folded classes and
// go missing from the total, while every folded count stays an integer.
func TestLagCountTotalGuard(t *testing.T) {
	_, nl, pl := lagFixture{name: "total", n: 100, grid: gridOf(10, 10, 1, 1),
		hist: map[string]float64{"INV_X1": 1}, dense: true}.build(t)
	plan := newLagPlan(pl.Grid, pl, make([]int, len(nl.Gates)), 1)
	plan.cs[0][0] = int32(plan.cols)
	var w lagWorker
	err := w.fftRow(plan, 0, 1, func(int, int, []int64) error { return nil })
	if !errors.Is(err, lkerr.ErrNumerical) || !strings.Contains(err.Error(), "total") {
		t.Errorf("lost pairs gave %v, want Numerical", err)
	}
}
