package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/parallel"
	"leakest/internal/quad"
	"leakest/internal/telemetry"
)

// Result is the outcome of one estimation: the full-chip leakage mean and
// standard deviation, plus bookkeeping about how they were obtained.
type Result struct {
	// Mean and Std are the full-chip leakage statistics in amperes.
	Mean, Std float64
	// Method names the estimator.
	Method string
	// GridRows and GridCols are the RG-array factorization used by the
	// linear method (zero for the others).
	GridRows, GridCols int
	// Note carries estimator-specific remarks (e.g. occupancy scaling).
	Note string
	// TileStats holds per-tile linear-method moments when the caller asked
	// for a tile breakdown (DESIGN.md §16); nil otherwise. It never changes
	// Mean, Std or Method.
	TileStats []TileStat
	// Degraded reports that a budget ruled out the requested method and the
	// statistics come from a cheaper estimator (Method names which one).
	Degraded bool
	// DegradeReason explains which budget tripped and what was skipped.
	DegradeReason string
	// Timings is the per-stage wall-clock breakdown of the call that
	// produced this result (model construction, the estimator itself, and —
	// for placed designs — extraction and the truth sum), recorded by the
	// telemetry layer at the public entry points.
	Timings []telemetry.StageTiming
}

// checkFinite rejects a result whose statistics carry NaN or Inf, naming
// the offending quantity — the final-moment guard that keeps a corrupted
// accumulation from escaping as a silent NaN.
func (r Result) checkFinite(op string) (Result, error) {
	if err := lkerr.CheckFinite(op, "mean", r.Mean); err != nil {
		return Result{}, err
	}
	if err := lkerr.CheckFinite(op, "std", r.Std); err != nil {
		return Result{}, err
	}
	return r, nil
}

// modelGrid factorizes the spec into the k×m RG array of Fig. 4 whose
// aspect matches the layout. When k·m ≠ N (gate counts rarely factorize
// into the layout aspect exactly), the off-diagonal covariance mass is
// scaled by N(N−1)/(S(S−1)) — the expected pair count of N gates occupying
// N of S sites uniformly at random; with S = N the formulas reduce to the
// paper's exactly.
func (m *Model) modelGrid() (rows, cols int) {
	n := float64(m.Spec.N)
	cols = int(math.Round(math.Sqrt(n * m.Spec.W / m.Spec.H)))
	if cols < 1 {
		cols = 1
	}
	rows = int(math.Round(n / float64(cols)))
	if rows < 1 {
		rows = 1
	}
	return rows, cols
}

// timeMethod spans an estimator stage and, when metrics are enabled,
// observes estimate_duration_seconds{method=...}. The disabled path costs
// one context lookup plus two atomic loads per estimation, never per
// iteration.
func timeMethod(ctx context.Context, method, stage string) func() {
	end := telemetry.StartSpan(ctx, stage)
	if !telemetry.MetricsOn() {
		return end
	}
	start := time.Now()
	name := telemetry.Label("estimate_duration_seconds", "method", method)
	return func() {
		end()
		telemetry.ObserveSeconds(name, time.Since(start).Seconds())
	}
}

// EstimateLinear computes the full-chip statistics with the O(n) method of
// §3.1 (Eq. 17): the pairwise covariance sum regrouped by distance vector
// with multiplicity (m−|i|)(k−|j|).
func (m *Model) EstimateLinear() (Result, error) {
	return m.EstimateLinearCtx(context.Background())
}

// EstimateLinearCtx is EstimateLinear with cancellation: the distance-vector
// loop checks ctx once per grid column, where it also reports progress.
func (m *Model) EstimateLinearCtx(ctx context.Context) (Result, error) {
	defer timeMethod(ctx, "linear", "estimate.linear")()
	k, cols := m.modelGrid()
	rep := telemetry.StartProgress(ctx, "estimate.linear", int64(cols))
	s := k * cols
	dw := m.Spec.W / float64(cols)
	dh := m.Spec.H / float64(k)

	tick := parallel.NewTicker(rep)
	off, err := m.lagSum(ctx, "core.EstimateLinear", k, cols, dw, dh, tick)
	if err != nil {
		rep.Done(tick.Count())
		return Result{}, err
	}
	rep.Done(int64(cols))
	off = fault.Corrupt(fault.SiteLinearAccum, off)
	n := float64(m.Spec.N)
	note := ""
	if s != m.Spec.N {
		occ := n * (n - 1) / (float64(s) * float64(s-1))
		off *= occ
		note = fmt.Sprintf("occupancy-scaled: %d gates on %d×%d=%d sites", m.Spec.N, k, cols, s)
	}
	variance := n*m.variance + off
	return Result{
		Mean:     n * m.mu,
		Std:      math.Sqrt(variance),
		Method:   "linear",
		GridRows: k,
		GridCols: cols,
		Note:     note,
	}.checkFinite("core.EstimateLinear")
}

// lagSum is the Eq. 17 off-diagonal covariance mass of a rows×cols site
// array at pitch (dw, dh): every distance vector (i, j) ≠ (0, 0) weighted
// by its multiplicity (cols−i)(rows−j), doubled per nonzero sign; the
// diagonal term (0,0) contributes S·σ²_XI and is the caller's. Columns are
// sharded: each column i owns slot colOff[i] and sums its j terms top to
// bottom, and the columns are merged in index order, so the result is
// bitwise identical at any worker count (the F(ρ_L) spline is read-only
// here). ctx is checked, and tick advanced, once per column.
func (m *Model) lagSum(ctx context.Context, op string, rows, cols int, dw, dh float64, tick *parallel.Ticker) (float64, error) {
	colOff := make([]float64, cols)
	err := parallel.ForEach(ctx, op, m.Workers, cols, func(_, i int) error {
		sum := 0.0
		for j := 0; j <= rows-1; j++ {
			if i == 0 && j == 0 {
				continue
			}
			d := math.Hypot(float64(i)*dw, float64(j)*dh)
			cov := m.CovAtCorr(m.Proc.TotalCorr(d))
			if cov == 0 {
				continue
			}
			// Each (±i, ±j) combination has multiplicity
			// (cols−i)(rows−j); with i or j zero the sign does not double.
			mult := float64((cols - i) * (rows - j))
			count := 4.0
			if i == 0 || j == 0 {
				count = 2
			}
			sum += count * mult * cov
		}
		colOff[i] = sum
		tick.Tick()
		return nil
	})
	if err != nil {
		return 0, err
	}
	off := 0.0
	for _, v := range colOff {
		off += v
	}
	return off, nil
}

// EstimateIntegral2D computes the statistics with the constant-time 2-D
// rectangular integral of §3.2.1 (Eq. 20):
//
//	σ² ≈ 4·(n²/A²)·∫₀ᵂ∫₀ᴴ (W−x)(H−y)·C_XI(√(x²+y²)) dy dx
//
// evaluated with panelled Gauss–Legendre quadrature whose resolution tracks
// the correlation length.
func (m *Model) EstimateIntegral2D() (Result, error) {
	return m.EstimateIntegral2DCtx(context.Background())
}

// EstimateIntegral2DCtx is EstimateIntegral2D with stage telemetry attached
// to ctx (the quadrature itself is constant-time and uninterruptible).
func (m *Model) EstimateIntegral2DCtx(ctx context.Context) (Result, error) {
	defer timeMethod(ctx, "integral-2d", "estimate.integral-2d")()
	w, h := m.Spec.W, m.Spec.H
	n := float64(m.Spec.N)
	area := w * h
	integrand := func(x, y float64) float64 {
		return (w - x) * (h - y) * m.CovAtCorr(m.Proc.TotalCorr(math.Hypot(x, y)))
	}
	nx, ny := m.panelCounts()
	integral := quad.Integrate2D(integrand, 0, w, 0, h, nx, ny)
	variance := 4 * n * n / (area * area) * integral
	if variance < 0 {
		variance = 0
	}
	return Result{
		Mean:   n * m.mu,
		Std:    math.Sqrt(variance),
		Method: "integral-2d",
		Note:   fmt.Sprintf("%d×%d Gauss-Legendre panels", nx, ny),
	}.checkFinite("core.EstimateIntegral2D")
}

// panelCounts sizes the quadrature grid so each correlation length gets
// several panels.
func (m *Model) panelCounts() (nx, ny int) {
	lam := m.Proc.EffectiveRange(0.1)
	if lam <= 0 {
		lam = math.Max(m.Spec.W, m.Spec.H)
	}
	scale := func(extent float64) int {
		p := int(math.Ceil(4 * extent / lam))
		if p < 6 {
			p = 6
		}
		if p > 48 {
			p = 48
		}
		return p
	}
	return scale(m.Spec.W), scale(m.Spec.H)
}

// EstimatePolar computes the statistics with the constant-time 1-D polar
// integral of §3.2.2 (Eqs. 25–26):
//
//	σ² ≈ 4·(n²/A²)·∫₀^{Dmax} C'(r)·r·g(r) dr + n²·C_floor
//	g(r) = 0.5·r² − (W+H)·r + (π/2)·W·H
//
// where C'(r) = C_XI(r) − C_floor and C_floor is the D2D covariance floor.
// The method requires the within-die correlation to vanish within
// min(W, H); otherwise an error directs the caller to the 2-D method.
func (m *Model) EstimatePolar() (Result, error) {
	return m.EstimatePolarCtx(context.Background())
}

// EstimatePolarCtx is EstimatePolar with stage telemetry attached to ctx.
func (m *Model) EstimatePolarCtx(ctx context.Context) (Result, error) {
	w, h := m.Spec.W, m.Spec.H
	// A pure-D2D process has no within-die term: C'(r) is identically zero
	// and only the covariance floor survives, so the integration range is
	// empty and the method always applies.
	dmax := 0.0
	if m.Proc.SigmaWID > 0 && m.Proc.WIDCorr != nil {
		dmax = m.Proc.WIDCorr.Range()
		if math.IsInf(dmax, 1) {
			dmax = m.Proc.EffectiveRange(1e-4)
		}
	}
	if dmax > math.Min(w, h) {
		return Result{}, lkerr.New(lkerr.InvalidInput, "core.EstimatePolar",
			"polar method needs correlation range %.4g ≤ min(W,H) = %.4g; use EstimateIntegral2D",
			dmax, math.Min(w, h))
	}
	// The span starts after the applicability check so a refused attempt
	// (Auto falling through to the 2-D integral) leaves no timing entry.
	defer timeMethod(ctx, "polar-1d", "estimate.polar-1d")()
	floor := m.CovAtCorr(m.Proc.CorrFloor())
	g := func(r float64) float64 { return 0.5*r*r - (w+h)*r + math.Pi/2*w*h }
	integrand := func(r float64) float64 {
		c := m.CovAtCorr(m.Proc.TotalCorr(r)) - floor
		return c * r * g(r)
	}
	n := float64(m.Spec.N)
	area := w * h
	// The integrand varies on the correlation-length scale; a few panels
	// per length give quadrature error far below the model error.
	lam := m.Proc.EffectiveRange(0.5)
	panels := 16
	if lam > 0 {
		if p := int(math.Ceil(8 * dmax / lam)); p > panels {
			panels = p
		}
	}
	if panels > 256 {
		panels = 256
	}
	integral := quad.GaussLegendrePanels(integrand, 0, dmax, panels)
	variance := 4*n*n/(area*area)*integral + n*n*floor
	if variance < 0 {
		variance = 0
	}
	return Result{
		Mean:   n * m.mu,
		Std:    math.Sqrt(variance),
		Method: "polar-1d",
		Note:   fmt.Sprintf("Dmax = %.4g µm", dmax),
	}.checkFinite("core.EstimatePolar")
}

// EstimateNaive is the no-correlation baseline in the style of the early
// estimators [1, 2] the paper improves on: gates are treated as
// independent, so the variance is only n·σ²_XI. It badly underestimates
// the spread when within-die correlation is present.
func (m *Model) EstimateNaive() (Result, error) {
	return m.EstimateNaiveCtx(context.Background())
}

// EstimateNaiveCtx is EstimateNaive with stage telemetry attached to ctx.
func (m *Model) EstimateNaiveCtx(ctx context.Context) (Result, error) {
	defer timeMethod(ctx, "naive-independent", "estimate.naive")()
	n := float64(m.Spec.N)
	return Result{
		Mean:   n * m.mu,
		Std:    math.Sqrt(n * m.variance),
		Method: "naive-independent",
	}.checkFinite("core.EstimateNaive")
}
