package chipmc

import (
	"context"
	"errors"
	"math"
	"testing"

	"leakest/internal/core"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func TestParseSampler(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Sampler
	}{{"auto", SamplerAuto}, {"dense", SamplerDense}, {"fft", SamplerFFT}, {"qmc", SamplerQMC}} {
		got, err := ParseSampler(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSampler(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("Sampler(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseSampler("cholesky"); err == nil {
		t.Error("unknown sampler name accepted")
	}
	if _, err := Run(Config{Sampler: Sampler(9)}, &netlist.Netlist{Name: "x",
		Gates: []netlist.Gate{{Type: "INV_X1"}}}, &placement.Placement{Site: []int{0}}); err == nil {
		t.Error("invalid Sampler value accepted")
	}
}

// The FFT sampler draws from the same distribution as the dense referee:
// both moments must agree within z·(combined standard error) on a shared
// design. This is the package-level version of the conformance gate.
func TestFFTSamplerMatchesDense(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 225)
	const samples = 2500
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: samples, Seed: 21}
	dcfg := base
	dcfg.Sampler = SamplerDense
	fcfg := base
	fcfg.Sampler = SamplerFFT
	dense, err := Run(dcfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	fft, err := Run(fcfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dense: µ=%.5g σ=%.5g | fft: µ=%.5g σ=%.5g", dense.Mean, dense.Std, fft.Mean, fft.Std)
	const z = 5
	meanTol := z * math.Hypot(dense.MeanSE(), fft.MeanSE())
	if d := math.Abs(fft.Mean - dense.Mean); d > meanTol {
		t.Errorf("FFT mean %.6g vs dense %.6g: |Δ| = %.3g > %.3g", fft.Mean, dense.Mean, d, meanTol)
	}
	stdTol := z * math.Hypot(dense.StdSE(), fft.StdSE())
	if d := math.Abs(fft.Std - dense.Std); d > stdTol {
		t.Errorf("FFT σ %.6g vs dense %.6g: |Δ| = %.3g > %.3g", fft.Std, dense.Std, d, stdTol)
	}
}

// Acceptance check for the grid fast path: a 100,000-gate design — 25× the
// dense limit — completes with the FFT sampler and its moments agree with
// the analytic O(n) estimator within z·SE.
func TestFFTSampler100kGates(t *testing.T) {
	lib, _, _, _ := testSetup(t, 4)
	base := spatial.Default90nm()
	proc := &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 20, R: 80},
	}
	const n = 100000
	hist, _ := stats.NewHistogram(map[string]float64{"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1})
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	rng := stats.NewRNG(17, "chipmc-100k")
	nl, err := netlist.RandomCircuit(rng, "mc-100k", n, 8, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	// A wide aspect keeps the embedding torus at 512×1024 rather than the
	// 1024×1024 a square 317×317 grid would force.
	grid, err := placement.NewGrid(n, 2, 2, 2.6)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 48, Seed: 23,
		Sampler: SamplerFFT}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(lib, proc, spec, MCMode())
	if err != nil {
		t.Fatal(err)
	}
	lin, err := model.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fft MC (%d trials): µ=%.5g σ=%.5g | linear: µ=%.5g σ=%.5g",
		mc.Samples, mc.Mean, mc.Std, lin.Mean, lin.Std)
	const z = 5
	if d := math.Abs(mc.Mean - lin.Mean); d > z*mc.MeanSE() {
		t.Errorf("100k mean: MC %.6g vs linear %.6g (|Δ| = %.3g > %.3g)",
			mc.Mean, lin.Mean, d, z*mc.MeanSE())
	}
	// σ carries both MC sampling error and the linear estimator's grid
	// regrouping error (~1%); z·StdSE dominates at this trial count.
	if d := math.Abs(mc.Std - lin.Std); d > z*mc.StdSE()+0.02*lin.Std {
		t.Errorf("100k σ: MC %.6g vs linear %.6g (|Δ| = %.3g > %.3g)",
			mc.Std, lin.Std, d, z*mc.StdSE()+0.02*lin.Std)
	}
	// The dense sampler must refuse a design this size.
	_, err = Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 48,
		Sampler: SamplerDense}, nl, pl)
	if !errors.Is(err, lkerr.ErrBudgetExceeded) {
		t.Errorf("dense sampler accepted 100k gates: %v", err)
	}
}

// Worker count must not change FFT-sampler results: per-trial PRNG streams
// plus a serial reduction make the run bitwise reproducible.
func TestFFTSamplerWorkerInvariance(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 120, Seed: 8,
		Sampler: SamplerFFT, KeepTrials: true}
	cfg.Workers = 1
	serial, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Mean != par.Mean || serial.Std != par.Std {
		t.Fatalf("worker count changed FFT results: µ %v vs %v, σ %v vs %v",
			serial.Mean, par.Mean, serial.Std, par.Std)
	}
	for i := range serial.Trials {
		if serial.Trials[i] != par.Trials[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

// The dense path must remain bitwise identical to its historical behaviour:
// auto (which routes small designs to dense) and explicit dense agree
// exactly, and the hoisted RNG-stream derivation reproduces the per-trial
// draws of the old fmt.Sprintf keying (cross-checked in internal/stats).
func TestAutoMatchesDenseBitwise(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 64)
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 300, Seed: 31, KeepTrials: true}
	auto := base
	expl := base
	expl.Sampler = SamplerDense
	a, err := Run(auto, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(expl, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != d.Mean || a.Std != d.Std || a.Q05 != d.Q05 || a.Q95 != d.Q95 {
		t.Errorf("auto and explicit dense disagree: %+v vs %+v", a, d)
	}
	for i := range a.Trials {
		if a.Trials[i] != d.Trials[i] {
			t.Fatalf("trial %d differs between auto and dense", i)
		}
	}
}

// assertTrialZeroAlloc warms one worker's buffers on src, then checks that a
// trial at the given tilt allocates nothing.
func assertTrialZeroAlloc(t *testing.T, name string, gates []gateState, src fieldSource, sigmaVt, tilt float64) {
	t.Helper()
	runner := &trialRunner{gates: gates, src: src, sigmaVt: sigmaVt, bufs: make([]trialBuf, 1)}
	if _, _, err := runner.runTrial(0, 0, tilt); err != nil { // warm the buffers
		t.Fatal(err)
	}
	trial := 1
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := runner.runTrial(0, trial, tilt); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	if allocs != 0 {
		t.Errorf("%s trial body allocates %.1f times per trial, want 0", name, allocs)
	}
}

// TestTrialBodyAllocs pins the trial engine's zero-allocation contract on
// the primary (θ = 0) field sources: once a worker's buffers are warm, a
// trial allocates nothing. The tilted tail sources and the tiled source are
// pinned by TestTailTrialBodyAllocs and TestTiledTrialBodyAllocs.
func TestTrialBodyAllocs(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, IncludeVt: true}
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		t.Fatal(err)
	}
	stream := stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/trial#")
	joint, err := newCholesky(context.Background(), "test", proc, pl, proc.SigmaD2D*proc.SigmaD2D, proc.LNominal, false)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := randvar.NewGridSampler(proc, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	qdims := randvar.SobolMaxDims
	seq, err := qmcSeq(cfg, nl.Name, qdims)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  fieldSource
	}{
		{"dense", &denseSource{mvn: joint, stream: stream}},
		{"qmc-dense", &denseSource{mvn: joint, stream: stream, seq: seq, qdims: qdims}},
		{"grid", &gridSource{gs: gs, sites: pl.Site, stream: stream}},
	} {
		assertTrialZeroAlloc(t, tc.name, gates, tc.src, proc.SigmaVt, 0)
	}
}

// TestDenseSourceRefusesTilt: the joint dense field folds the D2D deviate
// into its factor, so a tilted trial on it would be silently untilted and
// carry wrong importance weights; it must fail with InvalidInput instead.
func TestDenseSourceRefusesTilt(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 25)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5}
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := newCholesky(context.Background(), "test", proc, pl, proc.SigmaD2D*proc.SigmaD2D, proc.LNominal, false)
	if err != nil {
		t.Fatal(err)
	}
	src := &denseSource{mvn: joint, stream: stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/trial#")}
	runner := &trialRunner{gates: gates, src: src, bufs: make([]trialBuf, 1)}
	if _, _, err := runner.runTrial(0, 0, 0); err != nil {
		t.Fatalf("θ = 0: %v", err)
	}
	if _, _, err := runner.runTrial(0, 1, -2); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Errorf("θ = -2: error %v, want typed InvalidInput", err)
	}
}
