package core

import (
	"context"
	"math"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/parallel"
	"leakest/internal/placement"
	"leakest/internal/quad"
	"leakest/internal/telemetry"
)

// TrueStats computes the "true leakage" of a specific placed design: the
// pairwise-covariance sum over all cell instances (Eq. 15), the late-mode
// baseline the paper validates against. The per-gate statistics are
// state-weighted at the model's signal probability, and pairwise
// covariances follow the model's mode (exact f_{m,n} mapping or the
// simplified ρ_leak = ρ_L assumption).
func TrueStats(m *Model, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	return TrueStatsCtx(context.Background(), m, nl, pl)
}

// TrueStatsCtx is TrueStats with cancellation: it checks ctx — and reports
// progress — once per output lag row of each type pair, so a cancel lands
// within one row's work (or one forward/inverse transform pair's).
//
// A pair's covariance depends only on its two types and its lag class
// (|Δrow|, |Δcol|), so Eq. 15 is evaluated exactly as
// Σ_{a≤b} Σ_class N_ab(class)·C_ab(class), with N_ab the integer number of
// gate pairs of types a and b in that class (Eq. 17's n_ij generalized to
// arbitrary placements). The counts come from FFT cross-correlations of
// type-indicator images, or from direct enumeration when the design has
// fewer gate pairs than the transforms cost; both yield the same integers.
// Each type pair is summed in class order by one worker and the pairs are
// merged in fixed order, so the result is bitwise identical at any worker
// count.
func TrueStatsCtx(ctx context.Context, m *Model, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	return trueStats(ctx, m, nl, pl, nil)
}

// trueStats is TrueStatsCtx with the producer choice explicit (useFFT nil
// picks by cost), so the two producers are directly comparable in tests.
func trueStats(ctx context.Context, m *Model, nl *netlist.Netlist, pl *placement.Placement, useFFT *bool) (Result, error) {
	const op = "core.TrueStats"
	defer telemetry.StartSpan(ctx, "core.truth")()
	n := len(nl.Gates)
	if n == 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "empty netlist")
	}
	if len(pl.Site) != n {
		return Result{}, lkerr.New(lkerr.InvalidInput, op,
			"placement covers %d gates, netlist has %d", len(pl.Site), n)
	}

	// Index the gate types and pre-build the pairwise covariance splines.
	types := nl.SortedTypes()
	nt := len(types)
	tIdx := make(map[string]int, nt)
	for i, t := range types {
		tIdx[t] = i
	}
	pairSpl := make([][]*quad.Spline, nt)
	for i, a := range types {
		if err := lkerr.FromContext(ctx, op); err != nil {
			return Result{}, err
		}
		pairSpl[i] = make([]*quad.Spline, nt)
		for j := i; j < nt; j++ {
			// Warm the model cache, then grab the spline directly.
			if _, err := m.PairCovAtCorr(a, types[j], 0.5); err != nil {
				return Result{}, err
			}
			pairSpl[i][j] = m.pairCache[[2]string{a, types[j]}]
		}
	}

	// Per-gate effective stats.
	mean, variance := 0.0, 0.0
	gt := make([]int, n)
	for g, gate := range nl.Gates {
		mu, sigma, err := m.CellStats(gate.Type)
		if err != nil {
			return Result{}, err
		}
		mean += mu
		variance += sigma * sigma
		gt[g] = tIdx[gate.Type]
	}

	// Total correlation per lag class, clamped to at most 1; classes with
	// non-positive ρ contribute nothing.
	grid := pl.Grid
	rhos := make([]float64, grid.Rows*grid.Cols)
	for dr := 0; dr < grid.Rows; dr++ {
		for dc := 0; dc < grid.Cols; dc++ {
			rhos[dr*grid.Cols+dc] = min(m.Proc.TotalCorr(grid.LagDist(dr, dc)), 1)
		}
	}

	plan := newLagPlan(grid, pl, gt, nt)
	pairs := int64(n) * int64(n-1) / 2
	fftPath := plan.fftCost(nt) < float64(pairs)
	if useFFT != nil {
		fftPath = *useFFT
	}

	// Pairwise covariances (Eq. 15's off-diagonal part), one task per row
	// type a. The task owns pairVar[a][b−a] for every b ≥ a and sums each
	// in class order; the slots are merged in (a, b) order below.
	lagRows := int64(nt*(nt+1)/2) * int64(grid.Rows)
	rep := telemetry.StartProgress(ctx, "core.truth", lagRows)
	tick := parallel.NewTicker(rep)
	pairVar := make([][]float64, nt)
	for a := range pairVar {
		pairVar[a] = make([]float64, nt-a)
	}
	workers := make([]lagWorker, parallel.Resolve(m.Workers, nt))
	err := parallel.ForEach(ctx, op, m.Workers, nt, func(w, a int) error {
		clearStack()
		emit := func(b, dr int, counts []int64) error {
			fault.Hit(fault.SiteTruthRow)
			if err := lkerr.FromContext(ctx, op); err != nil {
				return err
			}
			sp, rho := pairSpl[a][b], rhos[dr*grid.Cols:(dr+1)*grid.Cols]
			sum := pairVar[a][b-a]
			for dc, k := range counts {
				if k == 0 || rho[dc] <= 0 {
					continue
				}
				if cov := sp.Eval(rho[dc]); cov > 0 {
					sum += float64(k) * cov
				}
			}
			pairVar[a][b-a] = sum
			tick.Tick()
			return nil
		}
		if fftPath {
			return workers[w].fftRow(plan, a, nt, emit)
		}
		return workers[w].directRow(plan, a, nt, emit)
	})
	if err != nil {
		rep.Done(tick.Count())
		return Result{}, err
	}
	// Off-diagonal counts are unordered gate pairs, each contributing 2·cov;
	// the diagonal counts both orders already.
	for _, row := range pairVar {
		variance += row[0]
		for _, v := range row[1:] {
			variance += 2 * v
		}
	}
	rep.Done(lagRows)
	telemetry.Add("truth_pairs_total", pairs)
	variance = fault.Corrupt(fault.SiteTruthRow, variance)
	return Result{
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Method: "true-n2",
	}.checkFinite(op)
}

// ExtractSpec derives the high-level design characteristics (Fig. 1) from a
// placed netlist — the late-mode extraction step: cell-usage histogram,
// gate count, and layout dimensions.
func ExtractSpec(nl *netlist.Netlist, pl *placement.Placement, signalProb float64) (DesignSpec, error) {
	hist, err := nl.Histogram()
	if err != nil {
		return DesignSpec{}, err
	}
	spec := DesignSpec{
		Hist:       hist,
		N:          len(nl.Gates),
		W:          pl.Grid.W(),
		H:          pl.Grid.H(),
		SignalProb: signalProb,
	}
	return spec, spec.Validate()
}
