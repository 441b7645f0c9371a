package chipmc

import (
	"context"
	"errors"
	"math"
	"testing"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/randvar"
)

// TestQMCDeterminism is the §9 contract extended to the qmc sampler: on
// both trial bodies the per-trial totals must be bitwise identical at any
// worker count AND any batch size (the two knobs that regroup work without
// being allowed to change it). Run with -race this doubles as the qmc race
// hammer.
func TestQMCDeterminism(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	for _, path := range []string{"dense", "grid"} {
		if path == "grid" {
			old := autoDenseLimit
			autoDenseLimit = 8 // route the 100-gate design to the grid body
			defer func() { autoDenseLimit = old }()
		}
		var ref Result
		first := true
		for _, workers := range []int{1, 4, 8} {
			for _, batch := range []int{0, 1, 3, 8, 64} {
				cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 121,
					Seed: 8, Sampler: SamplerQMC, Workers: workers, Batch: batch,
					KeepTrials: true, IncludeVt: true}
				got, err := Run(cfg, nl, pl)
				if err != nil {
					t.Fatalf("%s workers=%d batch=%d: %v", path, workers, batch, err)
				}
				if first {
					ref, first = got, false
					continue
				}
				if got.Mean != ref.Mean || got.Std != ref.Std {
					t.Fatalf("%s workers=%d batch=%d changed moments: µ %v vs %v, σ %v vs %v",
						path, workers, batch, got.Mean, ref.Mean, got.Std, ref.Std)
				}
				for i := range ref.Trials {
					if got.Trials[i] != ref.Trials[i] {
						t.Fatalf("%s workers=%d batch=%d: trial %d differs bitwise",
							path, workers, batch, i)
					}
				}
			}
		}
	}
}

// TestQMCMatchesDense is the package-level unbiasedness smoke: both qmc
// trial bodies estimate the same distribution as the frozen dense referee,
// so the moments must agree within z·(combined SE). The conformance suite
// (internal/conformance RunQMC) is the rigorous version with convergence
// gates; this catches gross bias cheaply.
func TestQMCMatchesDense(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 2000, Seed: 21}
	dcfg := base
	dcfg.Sampler = SamplerDense
	dense, err := Run(dcfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"dense", "grid"} {
		qcfg := base
		qcfg.Sampler = SamplerQMC
		if path == "grid" {
			old := autoDenseLimit
			autoDenseLimit = 8
			qmc, err := Run(qcfg, nl, pl)
			autoDenseLimit = old
			if err != nil {
				t.Fatal(err)
			}
			checkMomentsMatchDense(t, path+"-qmc", qmc, dense)
			continue
		}
		qmc, err := Run(qcfg, nl, pl)
		if err != nil {
			t.Fatal(err)
		}
		checkMomentsMatchDense(t, path+"-qmc", qmc, dense)
	}
}

// checkMomentsMatchDense checks that route's mean and σ agree with the
// dense referee's within z·(combined standard error).
func checkMomentsMatchDense(t *testing.T, route string, got, dense Result) {
	t.Helper()
	t.Logf("%s: µ=%.5g σ=%.5g | dense: µ=%.5g σ=%.5g", route, got.Mean, got.Std, dense.Mean, dense.Std)
	const z = 5
	meanTol := z * math.Hypot(dense.MeanSE(), got.MeanSE())
	if d := math.Abs(got.Mean - dense.Mean); d > meanTol {
		t.Errorf("%s mean %.6g vs dense %.6g: |Δ| = %.3g > %.3g", route, got.Mean, dense.Mean, d, meanTol)
	}
	stdTol := z * math.Hypot(dense.StdSE(), got.StdSE())
	if d := math.Abs(got.Std - dense.Std); d > stdTol {
		t.Errorf("%s σ %.6g vs dense %.6g: |Δ| = %.3g > %.3g", route, got.Std, dense.Std, d, stdTol)
	}
}

// TestQMCEmbeddingFailureFallsBackToDenseQMC mirrors the auto-mode
// degradation for qmc: an injected embedding failure on a design within the
// explicit gate budget degrades to the dense-qmc body (same low-discrepancy
// stream, dense field) instead of erroring; without a budget it surfaces as
// a typed Numerical error.
func TestQMCEmbeddingFailureFallsBackToDenseQMC(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 64)
	old := autoDenseLimit
	autoDenseLimit = 8
	defer func() { autoDenseLimit = old }()

	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 50, Seed: 3,
		Sampler: SamplerQMC, MaxGates: 128, KeepTrials: true}

	// The dense-qmc reference the fallback must reproduce bitwise: same
	// config with the grid threshold left alone (64 ≤ 4000 routes dense).
	autoDenseLimit = old
	want, err := Run(cfg, nl, pl)
	autoDenseLimit = 8
	if err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.SiteFFTSetup, fault.Action{Kind: fault.Error})
	got, err := Run(cfg, nl, pl)
	fault.Reset()
	if err != nil {
		t.Fatalf("qmc run with injected embedding failure: %v", err)
	}
	for i := range want.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Fatalf("fallback trial %d differs from dense-qmc reference", i)
		}
	}

	// No budget → typed error, not a silent fallback.
	nocap := cfg
	nocap.MaxGates = 0
	fault.Arm(fault.SiteFFTSetup, fault.Action{Kind: fault.Error})
	_, err = Run(nocap, nl, pl)
	fault.Reset()
	if !errors.Is(err, lkerr.ErrNumerical) {
		t.Fatalf("qmc embedding failure without budget: got %v, want typed Numerical", err)
	}
}

// TestQMCConfigValidation pins the new config surface: negative Batch and
// unknown degrade modes are typed InvalidInput errors.
func TestQMCConfigValidation(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 16)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 20, Seed: 1,
		Sampler: SamplerQMC}
	cfg.Batch = -1
	if _, err := Run(cfg, nl, pl); !errors.Is(err, lkerr.ErrInvalidInput) {
		t.Errorf("negative Batch: got %v, want typed InvalidInput", err)
	}
	cfg.Batch = 0
	cfg.QMCDegrade = "bogus"
	if _, err := Run(cfg, nl, pl); !errors.Is(err, lkerr.ErrInvalidInput) {
		t.Errorf("unknown QMCDegrade: got %v, want typed InvalidInput", err)
	}
}

// TestQMCDegradeChangesStream: the conformance self-check hinges on the
// degrade modes actually producing different trial streams — a degrade that
// silently fell through to the healthy sequence would make the self-check
// vacuous.
func TestQMCDegradeChangesStream(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 64)
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 40, Seed: 9,
		Sampler: SamplerQMC, KeepTrials: true}
	healthy, err := Run(base, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"unscrambled", "pseudo"} {
		cfg := base
		cfg.QMCDegrade = mode
		got, err := Run(cfg, nl, pl)
		if err != nil {
			t.Fatalf("degrade %q: %v", mode, err)
		}
		same := true
		for i := range healthy.Trials {
			if got.Trials[i] != healthy.Trials[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("degrade %q reproduced the healthy trial stream", mode)
		}
	}
}

// TestQMCTrialBodyAllocs pins the grid pair body on Sobol deviates at zero
// allocations per batch once a worker's buffers are warm: spectrum fill,
// Sobol point, mode substitution, batched inverse FFT, pair extraction, and
// the chip-total evaluations.
func TestQMCTrialBodyAllocs(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, IncludeVt: true}
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := randvar.NewGridSampler(proc, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	g := testGridBody(gs, pl.Site, nl.Name)
	if err := g.useSobol(context.Background(), cfg, nl.Name); err != nil {
		t.Fatal(err)
	}
	if len(g.modes) == 0 {
		t.Fatal("no Sobol modes on a WID sampler")
	}
	assertTrialZeroAlloc(t, "qmc-grid", &trialRunner{gates: gates, grid: g, sigmaVt: proc.SigmaVt}, 0)
}
