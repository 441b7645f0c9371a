package leakest

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"time"

	"leakest/internal/telemetry"
)

// This file is the public surface of the telemetry layer
// (internal/telemetry): metrics, stage spans, progress reporting and
// structured logging for the estimation pipeline.
//
// Everything here is off by default and costs the instrumented hot paths a
// nil-check (one atomic load) when off — see the "Observability" section of
// the README for the zero-overhead contract. Turn pieces on independently:
//
//	leakest.EnableMetrics()                  // start collecting metrics
//	http.ListenAndServe(addr, leakest.TelemetryHandler())
//	leakest.SetLogger(slog.Default())        // structured pipeline logging
//	ctx = leakest.WithProgress(ctx, fn)      // per-call progress reports
type (
	// Progress is one rate-limited progress report from a long-running
	// pipeline loop (characterization, the linear estimator, the truth's
	// lag rows, or the chip Monte-Carlo trials).
	Progress = telemetry.Progress
	// ProgressFunc receives progress reports. It runs on the estimation
	// goroutine, so it must be fast and must not block.
	ProgressFunc = telemetry.ProgressFunc
	// StageTiming is one entry of Result.Timings: a pipeline stage and its
	// wall-clock duration.
	StageTiming = telemetry.StageTiming
	// Trace is a request-scoped span tree: every estimation call under a
	// WithTrace context records its stages (and their numerical-health
	// attributes — sampler, degradation rung, clamp bias, …) into it.
	Trace = telemetry.Trace
	// TraceSnapshot is a Trace's exported form: ID, outcome, and the span
	// tree with per-span attributes.
	TraceSnapshot = telemetry.TraceSnapshot
)

// WithProgress returns a context whose estimation calls report loop
// progress to fn, at most ~10 times per second per loop plus one final
// report. Thread it through EstimateContext, CharacterizeContext,
// TrueLeakageContext, MonteCarloContext and the budgeted variants.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return telemetry.WithProgress(ctx, fn)
}

// WithProgressInterval is WithProgress with an explicit minimum interval
// between reports; interval ≤ 0 reports at every loop checkpoint.
func WithProgressInterval(ctx context.Context, fn ProgressFunc, interval time.Duration) context.Context {
	return telemetry.WithProgressInterval(ctx, fn, interval)
}

// SetLogger installs a structured logger for the estimation pipeline
// (degradation warnings, stage completions at Debug level). A nil logger —
// the default — disables logging entirely.
func SetLogger(l *slog.Logger) { telemetry.SetLogger(l) }

// EnableMetrics turns on the process-wide metrics registry (counters such
// as chipmc_trials_total and histograms such as
// estimate_duration_seconds{method=...}) and returns nothing; metrics stay
// off — and the hot paths at uninstrumented speed — until it is called.
func EnableMetrics() { telemetry.Enable() }

// MetricsSnapshot returns the current value of every collected metric,
// keyed by full metric name (empty when EnableMetrics was never called).
func MetricsSnapshot() map[string]any {
	r := telemetry.Default()
	if r == nil {
		return map[string]any{}
	}
	return r.Snapshot()
}

// WriteMetrics renders the collected metrics in the Prometheus text
// exposition format; it writes nothing when metrics are disabled.
func WriteMetrics(w interface{ Write([]byte) (int, error) }) {
	if r := telemetry.Default(); r != nil {
		r.WritePrometheus(w)
	}
}

// NewTrace returns an empty trace; attach it with WithTrace to collect the
// span tree of every estimation call under that context.
func NewTrace() *Trace { return telemetry.NewTrace() }

// WithTrace returns a context carrying t. Estimation calls under it record
// their stage spans and attributes into t instead of a fresh per-call trace,
// so one CLI run (characterize → estimate → truth → MC) yields one tree.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return telemetry.WithTrace(ctx, t)
}

// WriteChromeTrace renders a trace snapshot as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto (cmd/leakest -trace writes this).
func WriteChromeTrace(w io.Writer, snap TraceSnapshot) error {
	return telemetry.WriteChrome(w, snap)
}

// TelemetryHandler enables metrics collection and returns the
// observability endpoint of the estimation pipeline: Prometheus text at
// /metrics, the expvar dump at /debug/vars, and the pprof suite under
// /debug/pprof/. cmd/leakest serves it behind -listen; embedders can mount
// it on their own server.
func TelemetryHandler() http.Handler {
	return telemetry.NewMux(telemetry.Enable())
}
