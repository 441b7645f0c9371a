package chipmc

import (
	"context"
	"math"
	"strings"
	"testing"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func baseTailConfig(spec float64, isTrials int) *TailConfig {
	return &TailConfig{
		Spec:      spec,
		Quantiles: []float64{0.5, 0.95, 0.99},
		ISTrials:  isTrials,
	}
}

// TestTailQuantilesMatchTotals pins that the reported quantiles are exactly
// the stats.Quantiles of the retained trial stream — the per-trial
// reservoir is the ground truth the estimator composes from.
func TestTailQuantilesMatchTotals(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 36)
	qs := []float64{0.5, 0.95, 0.99, 0.999}
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 400, Seed: 5,
		KeepTrials: true, Tail: &TailConfig{Quantiles: []float64{0.99, 0.5, 0.999, 0.95, 0.5}}}
	res, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tail == nil {
		t.Fatal("Tail config set but Result.Tail is nil")
	}
	want := stats.Quantiles(res.Trials, qs)
	if len(res.Tail.Quantiles) != len(qs) {
		t.Fatalf("got %d quantile points, want %d (sorted, deduped)", len(res.Tail.Quantiles), len(qs))
	}
	for i, qp := range res.Tail.Quantiles {
		if qp.P != qs[i] || qp.Value != want[i] {
			t.Errorf("quantile %d = {%g, %v}, want {%g, %v}", i, qp.P, qp.Value, qs[i], want[i])
		}
	}
	// Monotone in probability — the property the fuzz seed corpus extends.
	for i := 1; i < len(res.Tail.Quantiles); i++ {
		if res.Tail.Quantiles[i].Value < res.Tail.Quantiles[i-1].Value {
			t.Errorf("quantiles not monotone at %d", i)
		}
	}
	// No spec: exceedance fields are the explicit no-data values.
	if !math.IsNaN(res.Tail.P) || res.Tail.Source != "" {
		t.Errorf("spec-less tail has P=%v source=%q, want NaN and empty", res.Tail.P, res.Tail.Source)
	}
}

// TestTailISAgreesWithPlainMC is the in-package statistical cross-check: a
// healthy IS exceedance at a moderate tail must agree with a large plain-MC
// reference within combined z·SE, and use far fewer trials for a smaller SE.
func TestTailISAgreesWithPlainMC(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 36)
	probe := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 4000, Seed: 7, KeepTrials: true}
	ref, err := Run(probe, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	spec := stats.Quantile(ref.Trials, 0.99) // P ≈ 1e-2: resolvable by both estimators
	refEx := stats.ExceedanceOf(ref.Trials, spec)

	cfg := probe
	cfg.KeepTrials = false
	cfg.Samples = 500
	cfg.Tail = baseTailConfig(spec, 1000)
	res, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Tail
	if ts.Source != TailSourceIS {
		t.Fatalf("tail source %q (degraded=%v, %s), want %q", ts.Source, ts.Degraded, ts.DegradedReason, TailSourceIS)
	}
	z := (ts.P - refEx.P) / math.Hypot(ts.SE, refEx.SE)
	if math.Abs(z) > 5 {
		t.Errorf("IS exceedance %v ± %v vs plain reference %v ± %v: z = %.1f", ts.P, ts.SE, refEx.P, refEx.SE, z)
	}
	if ts.ISHits == 0 || ts.HitESS < DefaultMinESS {
		t.Errorf("IS diagnostics hits=%d hitESS=%v, want a healthy run", ts.ISHits, ts.HitESS)
	}
	if !(ts.ESSRatio > 0 && ts.ESSRatio <= 1+1e-12) {
		t.Errorf("ESS ratio %v outside (0, 1]", ts.ESSRatio)
	}
	if ts.Shift >= 0 {
		t.Errorf("tilt %v not negative: leakage rises as L falls, so the upper tail needs a negative shift", ts.Shift)
	}
}

// TestTailZeroShiftMatchesPlain pins the θ→0 degeneracy: with an explicit
// tiny tilt the weights are ≈1 and the IS estimate of a mid-distribution
// spec lands near the plain estimate of its own trial stream.
func TestTailZeroShiftMatchesPlain(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 36)
	probe := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 800, Seed: 11, KeepTrials: true}
	ref, err := Run(probe, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	spec := stats.Quantile(ref.Trials, 0.5)
	cfg := probe
	cfg.Tail = &TailConfig{Spec: spec, ISTrials: 800, Shift: -1e-12}
	res, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Tail
	if ts.Source != TailSourceIS {
		t.Fatalf("tail source %q, want is (reason: %s)", ts.Source, ts.DegradedReason)
	}
	if math.Abs(ts.P-0.5) > 0.1 {
		t.Errorf("near-zero-tilt IS estimate %v far from 0.5", ts.P)
	}
	// Weights within rounding of 1 → ESS ≈ n.
	if math.Abs(ts.ESS-float64(ts.ISTrials)) > 1e-6*float64(ts.ISTrials) {
		t.Errorf("ESS %v at θ≈0, want ≈ %d", ts.ESS, ts.ISTrials)
	}
}

// TestTailFallbacks covers the typed degradations: an all-WID process has
// nothing to tilt, and an ESS floor above anything achievable forces the
// documented fallback to plain MC — both flagged, neither an error.
func TestTailFallbacks(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 36)
	probe := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 400, Seed: 3, KeepTrials: true}
	ref, err := Run(probe, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	spec := stats.Quantile(ref.Trials, 0.9)

	t.Run("all-wid", func(t *testing.T) {
		wid := &spatial.Process{
			LNominal: proc.LNominal,
			SigmaWID: proc.TotalSigma(),
			SigmaVt:  proc.SigmaVt,
			WIDCorr:  proc.WIDCorr,
		}
		cfg := probe
		cfg.Proc = wid
		cfg.Tail = baseTailConfig(spec, 200)
		res, err := Run(cfg, nl, pl)
		if err != nil {
			t.Fatal(err)
		}
		ts := res.Tail
		if !ts.Degraded || ts.Source != TailSourceMC || ts.ISTrials != 0 {
			t.Errorf("all-WID tail = source %q degraded=%v isTrials=%d, want mc/degraded/0", ts.Source, ts.Degraded, ts.ISTrials)
		}
		if !strings.Contains(ts.DegradedReason, "die-to-die") {
			t.Errorf("reason %q does not name the missing D2D variance", ts.DegradedReason)
		}
		if ts.P != ts.MCP {
			t.Errorf("degraded P %v != plain MCP %v", ts.P, ts.MCP)
		}
	})

	t.Run("ess-floor", func(t *testing.T) {
		cfg := probe
		cfg.Tail = baseTailConfig(spec, 200)
		cfg.Tail.MinESS = 1e9
		res, err := Run(cfg, nl, pl)
		if err != nil {
			t.Fatal(err)
		}
		ts := res.Tail
		if ts.Source != TailSourceFallback || !ts.Degraded {
			t.Errorf("unreachable ESS floor: source %q degraded=%v, want fallback/true", ts.Source, ts.Degraded)
		}
		if ts.P != ts.MCP || ts.SE != ts.MCSE {
			t.Errorf("fallback P/SE (%v, %v) != plain (%v, %v)", ts.P, ts.SE, ts.MCP, ts.MCSE)
		}
		if !strings.Contains(ts.DegradedReason, "ESS") {
			t.Errorf("reason %q does not name ESS", ts.DegradedReason)
		}
	})
}

// TestTailWeightScaleBiasesEstimate pins the conformance self-check hook: a
// 2× weight scale doubles the IS exceedance while leaving the ESS
// diagnostics untouched (uniform scaling is invisible to ESS — exactly why
// the mutation must be caught by the statistical gate, not a health check).
func TestTailWeightScaleBiasesEstimate(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 36)
	probe := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 400, Seed: 9, KeepTrials: true}
	ref, err := Run(probe, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probe
	cfg.Tail = baseTailConfig(stats.Quantile(ref.Trials, 0.95), 400)
	fair, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tail = baseTailConfig(cfg.Tail.Spec, 400)
	cfg.Tail.WeightScale = 2
	biased, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	ft, bt := fair.Tail, biased.Tail
	if ft.Source != TailSourceIS || bt.Source != TailSourceIS {
		t.Fatalf("sources %q/%q, want both is", ft.Source, bt.Source)
	}
	if math.Abs(bt.P-2*ft.P) > 1e-12*ft.P {
		t.Errorf("2× weight scale gives P %v, want exactly 2×%v", bt.P, ft.P)
	}
	if bt.ESS != ft.ESS || bt.HitESS != ft.HitESS {
		t.Errorf("ESS diagnostics changed under uniform scaling: %v/%v vs %v/%v", bt.ESS, bt.HitESS, ft.ESS, ft.HitESS)
	}
}

// TestTailWeightFaultSurfacesTyped proves a poisoned likelihood-ratio
// weight is a typed Numerical error, never a silent NaN probability.
func TestTailWeightFaultSurfacesTyped(t *testing.T) {
	defer fault.Reset()
	lib, proc, nl, pl := testSetup(t, 16)
	probe := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 100, Seed: 2, KeepTrials: true}
	ref, err := Run(probe, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probe
	cfg.Tail = &TailConfig{Spec: stats.Quantile(ref.Trials, 0.9), ISTrials: 50}
	fault.Arm(fault.SiteISWeight, fault.Action{Kind: fault.NaN})
	_, err = Run(cfg, nl, pl)
	if err == nil {
		t.Fatal("NaN weight produced no error")
	}
	if !lkerr.IsCode(err, lkerr.Numerical) {
		t.Fatalf("NaN weight error %v not typed Numerical", err)
	}
}

// TestTailConfigValidation rejects malformed tail requests with typed
// InvalidInput errors before any trial runs.
func TestTailConfigValidation(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 16)
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 50, Seed: 1}
	cases := []struct {
		name string
		tail TailConfig
	}{
		{"negative-spec", TailConfig{Spec: -1}},
		{"nan-spec", TailConfig{Spec: math.NaN()}},
		{"inf-spec", TailConfig{Spec: math.Inf(1)}},
		{"negative-is-trials", TailConfig{Spec: 1, ISTrials: -5}},
		{"is-without-spec", TailConfig{ISTrials: 100}},
		{"bad-quantile", TailConfig{Quantiles: []float64{1.0}}},
		{"nan-quantile", TailConfig{Quantiles: []float64{math.NaN()}}},
		{"nan-shift", TailConfig{Spec: 1, Shift: math.NaN()}},
		{"negative-weight-scale", TailConfig{Spec: 1, WeightScale: -2}},
		{"negative-min-ess", TailConfig{Spec: 1, MinESS: -1}},
	}
	for _, tc := range cases {
		cfg := base
		tail := tc.tail
		cfg.Tail = &tail
		_, err := Run(cfg, nl, pl)
		if err == nil || !lkerr.IsCode(err, lkerr.InvalidInput) {
			t.Errorf("%s: error %v, want typed InvalidInput", tc.name, err)
		}
	}
}

// TestTailTrialBodyAllocs: the tail stage's tilted proposals — split
// D2D-plus-dense-WID, split D2D-only and the tilted grid pair body — allocate
// nothing per work unit once a worker's buffers are warm; the
// likelihood-ratio bookkeeping happens in the serial reduction, not per
// trial.
func TestTailTrialBodyAllocs(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, IncludeVt: true}
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		t.Fatal(err)
	}
	stream := stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/tail#")
	wid, err := newCholesky(context.Background(), "test", proc, pl, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := randvar.NewGridSampler(proc, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *trialRunner
	}{
		{"split-dense", &trialRunner{src: &splitSource{wid: wid, lnom: proc.LNominal, sd2d: proc.SigmaD2D, stream: stream}}},
		{"split-d2d-only", &trialRunner{src: &splitSource{lnom: proc.LNominal, sd2d: proc.SigmaD2D, stream: stream}}},
		{"grid-tilted", &trialRunner{grid: testGridBody(gs, pl.Site, nl.Name)}},
	} {
		tc.r.gates, tc.r.sigmaVt = gates, proc.SigmaVt
		assertTrialZeroAlloc(t, tc.name, tc.r, -3)
	}
}
