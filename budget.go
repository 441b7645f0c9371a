package leakest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"leakest/internal/core"
	"leakest/internal/lkerr"
	"leakest/internal/telemetry"
)

// EstimateBudget bounds the work one estimation may spend. The paper's
// O(n) and O(1) estimators (Eqs. 17, 20, 25) are exact or near-exact
// cheaper substitutes for the O(n²) pairwise sum (Eq. 15), so a budget that
// rules out an expensive method degrades to the next-cheaper one instead of
// failing; the Result records the chosen method and the degradation reason.
//
// The degradation ladder is O(n²) true leakage → O(n) linear → O(1)
// integral (polar when applicable, 2-D rectangular otherwise). Every fall
// down the ladder is also reported through the telemetry layer: a
// degradations_total{reason=...} counter increment and a warning log, so a
// degraded run is visible on /metrics and in the structured log, not only
// to callers that inspect the Result.
type EstimateBudget struct {
	// MaxGates bounds methods whose cost grows with the gate count — the
	// O(n²) pairwise sum and the O(n) linear method. 0 means no limit.
	MaxGates int
	// MaxPairs bounds the O(n²) pair count n·(n−1)/2. 0 means no limit.
	MaxPairs int64
	// Timeout is a per-rung deadline: each attempted rung gets this much
	// time, and a rung that exceeds it degrades to the next-cheaper one.
	// 0 means no deadline.
	Timeout time.Duration
}

// pairs returns the O(n²) pair count of n gates.
func pairs(n int) int64 { return int64(n) * int64(n-1) / 2 }

// Degradation reason classes, the label values of degradations_total.
const (
	reasonMaxPairs = "max-pairs"
	reasonMaxGates = "max-gates"
	reasonTimeout  = "timeout"
	reasonBudget   = "budget"
	reasonOther    = "other"
)

// allowsTruth reports whether the O(n²) rung fits the static budget; the
// reason names what tripped, kind classifies it for the metrics label.
func (b EstimateBudget) allowsTruth(n int) (ok bool, kind, why string) {
	if b.MaxPairs > 0 && pairs(n) > b.MaxPairs {
		return false, reasonMaxPairs, fmtReason("o(n²) skipped: %d pairs > MaxPairs=%d", pairs(n), b.MaxPairs)
	}
	if b.MaxGates > 0 && n > b.MaxGates {
		return false, reasonMaxGates, fmtReason("o(n²) skipped: %d gates > MaxGates=%d", n, b.MaxGates)
	}
	return true, "", ""
}

// allowsLinear reports whether the O(n) rung fits the static budget.
func (b EstimateBudget) allowsLinear(n int) (ok bool, kind, why string) {
	if b.MaxGates > 0 && n > b.MaxGates {
		return false, reasonMaxGates, fmtReason("o(n) skipped: %d gates > MaxGates=%d", n, b.MaxGates)
	}
	return true, "", ""
}

func fmtReason(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// rungCtx derives the per-rung context: the caller's ctx, bounded by the
// budget timeout when one is set.
func (b EstimateBudget) rungCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.Timeout > 0 {
		return context.WithTimeout(ctx, b.Timeout)
	}
	return ctx, func() {}
}

// degradable reports whether an error should trigger a fall to the next
// rung: per-rung deadlines and budget refusals degrade; caller cancellation
// and real failures do not.
func degradable(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	// A dead parent context means the caller gave up — don't keep trying.
	if ctx.Err() != nil {
		return false
	}
	return errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrBudgetExceeded)
}

// noteDegradation records one fall down the ladder in the telemetry layer:
// degradations_total{reason=<kind>}, a structured warning naming the skipped
// rung, and — when ctx carries a trace — a "degraded.<rung>" span attribute
// so the flight recorder shows which rung fell and why. No-op cost when
// telemetry is disabled.
func noteDegradation(ctx context.Context, rung, kind, why string) {
	if telemetry.MetricsOn() {
		telemetry.Inc(telemetry.Label("degradations_total", "reason", kind))
	}
	telemetry.SpanAttrStr(ctx, "degraded."+rung, kind+": "+why)
	telemetry.Warn("estimation degraded", "rung", rung, "reason", kind, "detail", why)
}

// markDegraded flags a result obtained below the requested rung and logs
// the method that finally ran.
func markDegraded(res Result, reasons []string) Result {
	if len(reasons) == 0 {
		return res
	}
	res.Degraded = true
	res.DegradeReason = strings.Join(reasons, "; ")
	telemetry.Warn("degraded result", "method", res.Method, "reason", res.DegradeReason)
	return res
}

// EstimateBudgeted estimates a design's statistics under a budget,
// degrading O(n) → O(1) when the linear method is ruled out (early-mode
// estimation has no O(n²) rung). The Result is flagged Degraded when a
// cheaper method than the best available one was used, and every
// degradation is counted in degradations_total{reason=...}.
func (e *Estimator) EstimateBudgeted(ctx context.Context, design Design, budget EstimateBudget) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.EstimateBudgeted")
	if err := design.Validate(); err != nil {
		return Result{}, err
	}
	if e.Tiles < 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, "leakest.EstimateBudgeted",
			"negative Tiles %d", e.Tiles)
	}
	ctx, tr := telemetry.EnsureTrace(ctx)
	ctx, endEst := telemetry.WithSpan(ctx, "estimate")
	defer endEst()
	telemetry.SpanAttrInt(ctx, "gates", int64(design.N))
	defer func() { resultAttrs(ctx, res, err) }()
	m, err := e.newModelCtx(ctx, design)
	if err != nil {
		return Result{}, err
	}
	var reasons []string

	if ok, kind, why := budget.allowsLinear(design.N); !ok {
		noteDegradation(ctx, "o(n)", kind, why)
		reasons = append(reasons, why)
	} else {
		rctx, cancel := budget.rungCtx(ctx)
		res, err = m.EstimateLinearCtx(rctx)
		if err == nil && e.Tiles > 1 {
			// The breakdown rides on the linear rung only, so the ladder
			// semantics are unchanged.
			res.TileStats, err = m.TileStatsCtx(rctx, e.Tiles, nil)
		}
		cancel()
		if err == nil {
			res = e.finish(markDegraded(res, nil))
			res.Timings = tr.Stages()
			return res, nil
		}
		if !degradable(ctx, err) {
			return Result{}, err
		}
		noteDegradation(ctx, "o(n)", reasonKindOf(err), err.Error())
		reasons = append(reasons, "o(n) "+reasonOf(err))
	}

	res, err = e.constantTime(ctx, m)
	if err != nil {
		return Result{}, err
	}
	res = e.finish(markDegraded(res, reasons))
	res.Timings = tr.Stages()
	return res, nil
}

// TrueLeakageBudgeted computes a placed design's statistics starting from
// the O(n²) true-leakage baseline and degrading down the ladder — O(n²) →
// O(n) → O(1) — whenever a rung trips the budget. The Result records the
// method that finally ran; Degraded and DegradeReason report what was
// skipped and why, and each fall increments degradations_total{reason=...}.
func (e *Estimator) TrueLeakageBudgeted(ctx context.Context, nl *Netlist, pl *Placement, signalProb float64, budget EstimateBudget) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.TrueLeakageBudgeted")
	ctx, tr := telemetry.EnsureTrace(ctx)
	ctx, endTruth := telemetry.WithSpan(ctx, "true_leakage")
	defer endTruth()
	defer func() { resultAttrs(ctx, res, err) }()
	endExtract := telemetry.StartSpan(ctx, "core.extract")
	design, err := e.ExtractDesign(nl, pl, signalProb)
	endExtract()
	if err != nil {
		return Result{}, err
	}
	m, err := e.newModelCtx(ctx, design)
	if err != nil {
		return Result{}, err
	}
	var reasons []string

	// Rung 1: the O(n²) pairwise sum.
	if ok, kind, why := budget.allowsTruth(design.N); !ok {
		noteDegradation(ctx, "o(n²)", kind, why)
		reasons = append(reasons, why)
	} else {
		rctx, cancel := budget.rungCtx(ctx)
		res, err = core.TrueStatsCtx(rctx, m, nl, pl)
		cancel()
		if err == nil {
			res = e.finish(markDegraded(res, nil))
			res.Timings = tr.Stages()
			return res, nil
		}
		if !degradable(ctx, err) {
			return Result{}, err
		}
		noteDegradation(ctx, "o(n²)", reasonKindOf(err), err.Error())
		reasons = append(reasons, "o(n²) "+reasonOf(err))
	}

	// Rung 2: the exact O(n) linear method.
	if ok, kind, why := budget.allowsLinear(design.N); !ok {
		noteDegradation(ctx, "o(n)", kind, why)
		reasons = append(reasons, why)
	} else {
		rctx, cancel := budget.rungCtx(ctx)
		res, err = m.EstimateLinearCtx(rctx)
		cancel()
		if err == nil {
			res = e.finish(markDegraded(res, reasons))
			res.Timings = tr.Stages()
			return res, nil
		}
		if !degradable(ctx, err) {
			return Result{}, err
		}
		noteDegradation(ctx, "o(n)", reasonKindOf(err), err.Error())
		reasons = append(reasons, "o(n) "+reasonOf(err))
	}

	// Rung 3: the constant-time integrals — always within budget.
	res, err = e.constantTime(ctx, m)
	if err != nil {
		return Result{}, err
	}
	res = e.finish(markDegraded(res, reasons))
	res.Timings = tr.Stages()
	return res, nil
}

// resultAttrs stamps the outcome of a budgeted run onto the current span:
// the method that finally ran and, when the ladder fell, the degradation
// flag and reason. Nil-check no-op without a trace.
func resultAttrs(ctx context.Context, res Result, err error) {
	if err != nil {
		return
	}
	telemetry.SpanAttrStr(ctx, "method", res.Method)
	if res.Degraded {
		telemetry.SpanAttrBool(ctx, "degraded", true)
		telemetry.SpanAttrStr(ctx, "degrade_reason", res.DegradeReason)
	}
}

// constantTime runs the O(1) rung: the polar integral when the correlation
// range permits it, the 2-D rectangular integral otherwise.
func (e *Estimator) constantTime(ctx context.Context, m *core.Model) (Result, error) {
	if res, err := m.EstimatePolarCtx(ctx); err == nil {
		return res, nil
	}
	return m.EstimateIntegral2DCtx(ctx)
}

// reasonOf renders a degradation cause for DegradeReason.
func reasonOf(err error) string {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return "timed out"
	case errors.Is(err, ErrBudgetExceeded):
		return "over budget: " + err.Error()
	default:
		return err.Error()
	}
}

// reasonKindOf classifies a degradation cause for the metrics label.
func reasonKindOf(err error) string {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return reasonTimeout
	case errors.Is(err, ErrBudgetExceeded):
		return reasonBudget
	default:
		return reasonOther
	}
}
