// Package chipmc is an independent full-chip Monte-Carlo ground truth for
// the analytic estimators: it samples the spatially correlated channel-
// length field at every placed gate (D2D shift plus a within-die Gaussian
// field with the process correlation), samples each gate's input state from
// the signal probability, evaluates each gate's leakage from its tabulated
// characterization curve, and accumulates the total-chip leakage
// distribution. It validates the O(n²) "true leakage" analytics beyond the
// paper's own validation and powers the Vt-ablation experiment.
//
// Every trial runs through one engine (trialRunner), whose body depends on
// the field route. The dense routes factorize the full n×n covariance
// (O(n³) setup, O(n²) per trial): the joint dense source is the historical,
// bitwise-frozen reference, and the split dense source is the importance-
// sampled tail's proposal (tail.go). The grid route exploits the regular
// placement grid: the stationary WID kernel is circulant-embedded on a
// torus (randvar.GridSampler), so setup is one 2-D FFT and every inverse
// transform yields two trial fields (Dietrich–Newsam pairs, grid.go) at
// O(S log S) in the torus size S — raising the practical gate budget from
// thousands to hundreds of thousands while sampling the same covariance at
// every grid lag (exactly when the embedding torus affords the kernel's
// support, within a hard-capped clamp bias otherwise; see
// randvar.GridSampler). Pseudo-random and scrambled-Sobol deviates are the
// only difference between the fft and qmc grid routes.
package chipmc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"leakest/internal/charlib"
	"leakest/internal/fault"
	"leakest/internal/linalg"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/parallel"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// DefaultMaxGates is the default bound on the dense-Cholesky field
// construction; beyond this the O(n³) factorization is impractical and the
// FFT sampler (or the analytic estimators) is the intended tool. Override
// with Config.MaxGates.
const DefaultMaxGates = 4000

// DefaultMaxGatesFFT is the default gate bound for the FFT sampler, whose
// per-trial cost grows as S log S in the torus size rather than n². The
// limit keeps worst-case torus scratch (16 bytes/point per worker) and trial
// time predictable. Override with Config.MaxGates.
const DefaultMaxGatesFFT = 200000

// autoDenseLimit is the gate count up to which SamplerAuto routes to the
// dense reference path; a variable (not const) only so the fault-injection
// tests can exercise the FFT→dense fallback on small, fast designs.
var autoDenseLimit = DefaultMaxGates

// Sampler selects how the correlated channel-length field is drawn.
type Sampler int

const (
	// SamplerAuto picks SamplerDense for designs within DefaultMaxGates and
	// SamplerFFT beyond, falling back to dense if the grid embedding fails
	// on a small design.
	SamplerAuto Sampler = iota
	// SamplerDense forces the dense-Cholesky field (the historical
	// reference path; bitwise-frozen results).
	SamplerDense
	// SamplerFFT forces the circulant-embedding grid sampler.
	SamplerFFT
	// SamplerQMC draws trials from a scrambled-Sobol low-discrepancy
	// sequence instead of pseudo-random deviates, batching trial fields in
	// Dietrich–Newsam pairs through one 2-D FFT pass on large designs and
	// feeding the dense-Cholesky field directly on small ones. Same
	// estimand and unbiasedness as the other samplers, materially fewer
	// trials to a given standard error on smooth integrands; results are
	// NOT bitwise comparable to dense/fft (different deviate stream), but
	// are themselves bitwise reproducible at any worker count or batch
	// size. See qmc.go.
	SamplerQMC
)

// String implements fmt.Stringer with the CLI spellings.
func (s Sampler) String() string {
	switch s {
	case SamplerAuto:
		return "auto"
	case SamplerDense:
		return "dense"
	case SamplerFFT:
		return "fft"
	case SamplerQMC:
		return "qmc"
	}
	return "invalid"
}

// ParseSampler maps the CLI spellings onto Sampler values.
func ParseSampler(name string) (Sampler, error) {
	switch name {
	case "auto":
		return SamplerAuto, nil
	case "dense":
		return SamplerDense, nil
	case "fft":
		return SamplerFFT, nil
	case "qmc":
		return SamplerQMC, nil
	}
	return 0, lkerr.New(lkerr.InvalidInput, "chipmc.ParseSampler",
		"unknown sampler %q (want auto, dense, fft, or qmc)", name)
}

// Config controls a full-chip Monte-Carlo run.
type Config struct {
	// Lib is the characterized library (curves are evaluated, not fits).
	Lib *charlib.Library
	// Proc supplies the variation model; its (µ, σ) must match Lib's.
	Proc *spatial.Process
	// SignalProb drives per-gate input-state sampling.
	SignalProb float64
	// Samples is the number of chip-level trials (default 2000).
	Samples int
	// Seed fixes the random stream.
	Seed int64
	// IncludeVt adds an independent per-gate lognormal factor modelling
	// random Vt fluctuation, exp(−ΔVt/(n·vT)) with ΔVt ~ N(0, σ_Vt²). This
	// slightly overstates the Vt variance contribution (devices within a
	// gate are lumped into one factor), which is conservative for the
	// ablation that shows the contribution is negligible.
	IncludeVt bool
	// Sampler selects the field construction (default SamplerAuto).
	Sampler Sampler
	// Batch is the number of trial fields every grid route (fft, qmc and
	// the tail's grid proposal) pushes through one batched 2-D FFT pass,
	// rounded up to a whole number of Dietrich–Newsam pairs. 0 selects the
	// largest pair count ≤ DefaultBatch/2 whose toruses fit in
	// gridBatchBytes per worker. Ignored by the dense routes. Results are
	// bitwise independent of the batch size.
	Batch int
	// QMCDegrade deliberately weakens the qmc deviate stream
	// ("unscrambled" or "pseudo"; see randvar.NewSobolDegraded). It exists
	// solely so the conformance suite can prove its convergence gates
	// would catch a broken sequence; leave empty in production.
	QMCDegrade string
	// MaxGates bounds the gate count the selected sampler will accept
	// (default DefaultMaxGates for the dense path, DefaultMaxGatesFFT
	// otherwise). Exceeding it is a typed BudgetExceeded error, not a
	// crash: the analytic estimators handle larger designs.
	MaxGates int
	// Workers is the goroutine count sampling trials: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Results are bitwise
	// identical at any setting — every trial draws from its own PRNG stream
	// derived from (Seed, trial index), and the moment reduction runs over
	// the stored per-trial totals in trial order.
	Workers int
	// Prebuilt is an optional pre-constructed FFT grid sampler (the
	// expensive torus embedding, cacheable across runs keyed by
	// (kernel, grid)). It is used only when the FFT path is selected and
	// its grid matches the placement grid exactly; otherwise the embedding
	// is built fresh. The sampler must have been built for the same
	// process (the embedding depends only on the WID kernel and the grid).
	Prebuilt *randvar.GridSampler
	// KeepTrials retains the per-trial chip totals in Result.Trials — the
	// raw MC stream, used by the determinism suite and by distribution
	// diagnostics. Off by default (costs 8 bytes per trial when on).
	KeepTrials bool
	// Tail enables distribution-tail estimation — quantiles, exceedance at
	// a spec, and the importance-sampled deep-tail estimator — populating
	// Result.Tail. Nil disables the stage (the historical behavior).
	Tail *TailConfig
}

// Result is the sampled full-chip leakage distribution summary.
type Result struct {
	Mean, Std float64
	// Q05 and Q95 are the 5th and 95th percentile of total leakage.
	Q05, Q95 float64
	Samples  int
	// Trials holds the per-trial chip totals in trial order when
	// Config.KeepTrials is set; nil otherwise.
	Trials []float64
	// Tail holds the distribution-tail summary when Config.Tail is set;
	// nil otherwise.
	Tail *TailStats
}

// MeanSE returns the standard error of the sampled mean, the natural
// tolerance unit when comparing the MC mean against an analytic estimator.
func (r Result) MeanSE() float64 { return stats.MeanSE(r.Std, r.Samples) }

// StdSE returns the normal-theory standard error of the sampled standard
// deviation. The per-trial totals are lognormal-ish, so the true error is
// somewhat larger; callers widen the z multiplier to absorb that.
func (r Result) StdSE() float64 { return stats.StdSE(r.Std, r.Samples) }

// gateState holds one cell type's sampling tables at the run's signal
// probability; every gate of the type shares it.
type gateState struct {
	states []*charlib.StateChar
	cum    []float64
}

// nvt is n·vT of the default 90 nm card, the subthreshold slope factor of
// the Vt-fluctuation leakage multiplier.
const nvt = 1.4 * 0.0259

// trialBuf is one worker's private trial state: a reusable PRNG (reseeded
// per trial or pair from the route's streams, which reproduces the
// historical per-trial streams bitwise with zero allocations), the per-gate
// channel lengths, and the scratch of whichever route is active.
type trialBuf struct {
	rng *rand.Rand
	ls  []float64 // per-gate channel lengths
	z   []float64 // dense routes: standard-normal scratch
	// Grid route: a batch of pair toruses, one Sobol point's normals, the
	// raw (z0a, z0b) of each pair in the batch, and the pair's two
	// extracted fields.
	toruses        []complex128
	zq, z0, fa, fb []float64
}

// warm allocates a worker's buffers for the runner's route.
func (b *trialBuf) warm(r *trialRunner) {
	b.rng = rand.New(rand.NewSource(1))
	b.ls = make([]float64, len(r.gates))
	g := r.grid
	if g == nil {
		b.z = make([]float64, len(b.ls))
		return
	}
	b.toruses = make([]complex128, g.batchPairs*g.gs.TorusLen())
	b.zq = make([]float64, 2+2*len(g.modes))
	b.z0 = make([]float64, 2*g.batchPairs)
	b.fa = make([]float64, g.gs.Sites())
	b.fb = make([]float64, g.gs.Sites())
}

// fieldSource draws the channel-length field of one dense-route trial. fill
// seeds the worker RNG from the source's own streams, writes every gate's
// channel length into b.ls with the shared D2D deviate tilted by θ, returns
// the raw deviate z₀ (the importance weight's argument), and leaves the RNG
// positioned for chipTotal's per-gate state and Vt draws. Only the split
// source draws z₀ separately and can be tilted; the joint dense source
// refuses θ ≠ 0. Each source's draw order is part of the bitwise
// determinism contract.
type fieldSource interface {
	fill(b *trialBuf, trial int, tilt float64) (z0 float64, err error)
}

// denseSource is the joint dense-Cholesky field, Σ = σ_D2D²·11ᵀ + σ_WID²·R:
// the primary dense path, and the small-design qmc path when seq is set
// (the first qdims normals then come from the trial's Sobol point). Its
// D2D deviate is folded into the factor, so it cannot be tilted: fill
// refuses θ ≠ 0, and z₀ is reported as 0.
type denseSource struct {
	mvn    *randvar.MVNSampler
	stream stats.Stream
	seq    *randvar.SobolSeq
	qdims  int
}

func (s *denseSource) fill(b *trialBuf, trial int, tilt float64) (float64, error) {
	if tilt != 0 {
		return 0, lkerr.New(lkerr.InvalidInput, "chipmc.Run",
			"the joint dense field cannot be tilted (θ = %g)", tilt)
	}
	b.rng.Seed(s.stream.SeedFor(trial))
	if s.seq != nil {
		s.seq.NormalsInto(uint32(trial), b.z[:s.qdims])
	}
	s.mvn.SamplePartialInto(b.rng, b.z, b.ls, s.qdims)
	return 0, nil
}

// splitSource is the dense field drawn as its two components — L_g = L_nom
// + σ_D2D·(z₀+θ) + wid_g with wid ~ N(0, σ_WID²·R) — the tail's dense
// proposal. At θ = 0 it samples exactly the joint law of denseSource, since
// the D2D component is a rank-one common term. wid is nil when σ_WID = 0.
type splitSource struct {
	wid        *randvar.MVNSampler
	lnom, sd2d float64
	stream     stats.Stream
}

func (s *splitSource) fill(b *trialBuf, trial int, tilt float64) (float64, error) {
	b.rng.Seed(s.stream.SeedFor(trial))
	z0 := b.rng.NormFloat64()
	shift := s.lnom + s.sd2d*(z0+tilt)
	if s.wid == nil {
		for g := range b.ls {
			b.ls[g] = shift
		}
		return z0, nil
	}
	s.wid.SampleInto(b.rng, b.z, b.ls)
	for g := range b.ls {
		b.ls[g] += shift
	}
	return z0, nil
}

// trialRunner is the one trial engine: the gate tables, the route's trial
// body, and per-worker buffers. Exactly one of src (the dense routes, one
// trial per work unit) and grid (the grid routes, one batch of pairs per
// work unit) is set. The primary trials and the importance-sampled tail
// trials both run through it; they differ only in the route's streams, the
// tilt, and what the caller does with z₀.
type trialRunner struct {
	gates []*gateState
	src   fieldSource
	grid  *gridBody
	// sigmaVt is the Vt-fluctuation sigma when the ablation is enabled, 0
	// otherwise.
	sigmaVt float64
	bufs    []trialBuf
}

// pass is one fan-out's output: every trial's chip total and, on the
// importance-sampled tail pass (z0s non-nil), every trial's raw D2D
// deviate. The primary pass (z0s nil) is the chipmc/trial fault site and
// ticks progress.
type pass struct {
	tilt   float64
	totals []float64
	z0s    []float64
	count  *telemetry.Counter
	tick   *parallel.Ticker
}

// fanOut runs every trial of p over the worker pool. Every trial draws from
// its own streams keyed by (Seed, trial or pair), so the slots are bitwise
// identical at any worker count and batch size; workers only race on
// disjoint slots and their private buffers.
func (r *trialRunner) fanOut(ctx context.Context, op string, workers int, p *pass) error {
	units := len(p.totals)
	if r.grid != nil {
		units = r.grid.batches(units)
	}
	return parallel.ForEach(ctx, op, workers, units, func(w, u int) error {
		if err := r.unit(w, u, p); err != nil {
			return lkerr.Wrap(lkerr.Numerical, op, err)
		}
		return nil
	})
}

// unit runs work unit u on worker w: trial u on a dense route, pair batch u
// on a grid route. A worker's buffers are allocated on its first unit;
// everything after is allocation-free (guarded by the TrialBodyAllocs
// tests).
func (r *trialRunner) unit(w, u int, p *pass) error {
	b := &r.bufs[w]
	if b.rng == nil {
		b.warm(r)
	}
	if r.grid != nil {
		return r.grid.batch(r, b, u, p)
	}
	z0, err := r.src.fill(b, u, p.tilt)
	if err != nil {
		return err
	}
	r.finish(p, b.rng, b.ls, u, z0)
	return nil
}

// finish evaluates one trial whose channel lengths are in ls — rng is
// positioned at the trial's per-gate state and Vt draws — and records its
// chip total, and on the tail pass its raw D2D deviate z₀.
func (r *trialRunner) finish(p *pass, rng *rand.Rand, ls []float64, trial int, z0 float64) {
	p.count.Inc()
	primary := p.z0s == nil
	if primary {
		fault.Hit(fault.SiteChipMCTrial)
	}
	total := chipTotal(r.gates, rng, ls, r.sigmaVt)
	if primary {
		total = fault.Corrupt(fault.SiteChipMCTrial, total)
	} else {
		p.z0s[trial] = z0
	}
	p.totals[trial] = total
	p.tick.Tick()
}

// chipTotal evaluates the chip leakage of one sampled channel-length vector:
// per-gate input state by inverse-CDF draw, leakage from the characterized
// curve, optional Vt-fluctuation factor. Shared by every trial route; the
// per-gate draw order is part of the bitwise determinism contract.
func chipTotal(gates []*gateState, rng *rand.Rand, ls []float64, sigmaVt float64) float64 {
	total := 0.0
	for g, gs := range gates {
		st := gs.states[0]
		if len(gs.states) > 1 {
			u := rng.Float64()
			idx := sort.SearchFloat64s(gs.cum, u)
			if idx >= len(gs.states) {
				idx = len(gs.states) - 1
			}
			st = gs.states[idx]
		}
		x := st.Leakage(ls[g])
		if sigmaVt > 0 {
			x *= math.Exp(-rng.NormFloat64() * sigmaVt / nvt)
		}
		total += x
	}
	return total
}

// Run executes the Monte Carlo for the placed netlist.
func Run(cfg Config, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	return RunContext(context.Background(), cfg, nl, pl)
}

// resolveSampler picks the effective sampler and gate budget: explicit
// sampler choices use their own default budget, auto routes small designs
// to the frozen dense path and large ones to the FFT path, and an explicit
// Config.MaxGates overrides the budget in every mode.
func resolveSampler(cfg Config, n int) (use Sampler, maxGates int, err error) {
	switch cfg.Sampler {
	case SamplerAuto, SamplerDense, SamplerFFT, SamplerQMC:
	default:
		return 0, 0, lkerr.New(lkerr.InvalidInput, "chipmc.Run",
			"invalid Sampler %d", int(cfg.Sampler))
	}
	use = cfg.Sampler
	if use == SamplerAuto {
		if n <= autoDenseLimit {
			use = SamplerDense
		} else {
			use = SamplerFFT
		}
	}
	maxGates = cfg.MaxGates
	if maxGates == 0 {
		if cfg.Sampler == SamplerDense {
			maxGates = DefaultMaxGates
		} else {
			maxGates = DefaultMaxGatesFFT
		}
	}
	return use, maxGates, nil
}

// timeRun observes estimate_duration_seconds{method="chipmc",sampler=...}
// when metrics are enabled, mirroring the analytic estimators' timings so
// dashboards can compare methods and samplers directly.
func timeRun(sampler Sampler) func() {
	if !telemetry.MetricsOn() {
		return func() {}
	}
	start := time.Now()
	name := telemetry.Label(
		telemetry.Label("estimate_duration_seconds", "method", "chipmc"),
		"sampler", sampler.String())
	return func() { telemetry.ObserveSeconds(name, time.Since(start).Seconds()) }
}

// RunContext is Run with cancellation: ctx is checked once per row while
// assembling the dense field covariance and once per chip-level trial, so a
// cancel stops the run within one check interval.
func RunContext(ctx context.Context, cfg Config, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	const op = "chipmc.Run"
	n := len(nl.Gates)
	if n == 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "empty netlist")
	}
	ctx, endRun := telemetry.WithSpan(ctx, "chipmc.run")
	defer endRun()
	use, maxGates, err := resolveSampler(cfg, n)
	if err != nil {
		return Result{}, err
	}
	if n > maxGates {
		return Result{}, lkerr.New(lkerr.BudgetExceeded, op,
			"%d gates exceed the %s-sampler limit MaxGates=%d; "+
				"use the analytic estimators (Estimate / TrueLeakage) for designs this large",
			n, use, maxGates)
	}
	if len(pl.Site) != n {
		return Result{}, lkerr.New(lkerr.InvalidInput, op,
			"placement covers %d gates, netlist has %d", len(pl.Site), n)
	}
	if cfg.Lib == nil || cfg.Proc == nil {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "Lib and Proc are required")
	}
	if err := cfg.Proc.Validate(); err != nil {
		return Result{}, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	if math.Abs(cfg.Proc.LNominal-cfg.Lib.Process.LNominal) > 1e-12 ||
		math.Abs(cfg.Proc.TotalSigma()-cfg.Lib.Process.TotalSigma()) > 1e-12 {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "process inconsistent with characterization")
	}
	if !(cfg.SignalProb >= 0 && cfg.SignalProb <= 1) {
		return Result{}, lkerr.New(lkerr.InvalidInput, op,
			"signal probability %g outside [0,1]", cfg.SignalProb)
	}
	if cfg.Samples == 0 {
		cfg.Samples = 2000
	}
	if cfg.Samples < 10 {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "%d samples too few", cfg.Samples)
	}
	if cfg.Batch < 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "negative Batch %d", cfg.Batch)
	}
	var tailQs []float64
	if cfg.Tail != nil {
		tailQs, err = cfg.Tail.validate(op)
		if err != nil {
			return Result{}, err
		}
	}

	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		return Result{}, err
	}
	runner := &trialRunner{gates: gates}
	if cfg.IncludeVt {
		runner.sigmaVt = cfg.Proc.SigmaVt
	}
	stream := stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/trial#")
	// The qmc sampler rides the grid route on large designs and the dense
	// route on small ones (direct low-discrepancy deviates), mirroring the
	// auto threshold.
	if use == SamplerFFT || (use == SamplerQMC && n > autoDenseLimit) {
		gs, gerr := gridSetup(ctx, cfg, pl)
		switch {
		case gerr == nil:
			runner.grid = &gridBody{gs: gs, sites: pl.Site, trialStream: stream,
				pairStream: stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/pair#"),
				batchPairs: batchPairs(cfg.Batch, gs.TorusLen())}
			telemetry.SpanAttrInt(ctx, "chipmc.batch", int64(2*runner.grid.batchPairs))
			if use == SamplerQMC {
				if err := runner.grid.useSobol(ctx, cfg, nl.Name); err != nil {
					return Result{}, err
				}
			}
		case cfg.Sampler == SamplerAuto && cfg.MaxGates != 0 && n <= cfg.MaxGates:
			// The embedding failed, but the caller's explicit gate budget
			// admits the dense path: degrade gracefully and record it.
			telemetry.Add("chipmc_sampler_fallback_total", 1)
			telemetry.SpanAttrBool(ctx, "chipmc.fallback", true)
			use = SamplerDense
		case use == SamplerQMC && cfg.MaxGates != 0 && n <= cfg.MaxGates:
			// Same graceful degradation for qmc: the explicit budget admits
			// the dense field, and the low-discrepancy stream carries over
			// to the dense-qmc source.
			telemetry.Add("chipmc_sampler_fallback_total", 1)
			telemetry.SpanAttrBool(ctx, "chipmc.fallback", true)
		default:
			return Result{}, lkerr.Wrap(lkerr.Numerical, op, gerr)
		}
	}
	if runner.grid == nil {
		mvn, derr := newCholesky(ctx, op, cfg.Proc, pl, cfg.Proc.SigmaD2D*cfg.Proc.SigmaD2D, cfg.Proc.LNominal, true)
		if derr != nil {
			return Result{}, derr
		}
		dense := &denseSource{mvn: mvn, stream: stream}
		if use == SamplerQMC {
			dense.qdims = min(n, randvar.SobolMaxDims)
			if dense.seq, err = qmcSeq(cfg, nl.Name, dense.qdims); err != nil {
				return Result{}, err
			}
			telemetry.SpanAttrInt(ctx, "chipmc.qmc_dims", int64(dense.qdims))
		}
		runner.src = dense
	}
	defer timeRun(use)()

	workers := parallel.Resolve(cfg.Workers, cfg.Samples)
	runner.bufs = make([]trialBuf, workers)
	totals := make([]float64, cfg.Samples)
	telemetry.Inc(telemetry.Label("chipmc_sampler_runs_total", "sampler", use.String()))
	telemetry.SpanAttrStr(ctx, "chipmc.sampler", use.String())
	telemetry.SpanAttrInt(ctx, "chipmc.trials", int64(cfg.Samples))
	telemetry.SpanAttrInt(ctx, "chipmc.workers", int64(workers))
	endTrials := telemetry.StartSpan(ctx, "chipmc.trials")
	rep := telemetry.StartProgress(ctx, "chipmc.trials", int64(cfg.Samples))
	primary := &pass{totals: totals, tick: parallel.NewTicker(rep)}
	if r := telemetry.Default(); r != nil {
		primary.count = r.Counter("chipmc_trials_total")
	}
	err = runner.fanOut(ctx, op, workers, primary)
	if err != nil {
		rep.Done(primary.tick.Count())
		endTrials()
		return Result{}, err
	}
	rep.Done(int64(cfg.Samples))
	endTrials()
	// The per-worker field memory is auditable from the
	// process_peak_alloc_bytes gauge, sampled while the buffers are live.
	telemetry.SamplePeakAlloc()
	res, err := summarize(op, totals, cfg.KeepTrials)
	if err != nil {
		return Result{}, err
	}
	if cfg.Tail != nil {
		tail, terr := runTail(ctx, cfg, tailQs, nl.Name, pl, runner, totals, res, workers)
		if terr != nil {
			return Result{}, terr
		}
		res.Tail = tail
	}
	return res, nil
}

// gridSetup builds (or reuses the prebuilt) circulant embedding of the
// placement grid inside the chipmc.fft_setup span, recording its
// numerical-health facts: how much eigenvalue clamping the torus absorbed
// and how large it had to grow.
func gridSetup(ctx context.Context, cfg Config, pl *placement.Placement) (*randvar.GridSampler, error) {
	endSetup := telemetry.StartSpan(ctx, "chipmc.fft_setup")
	var gs *randvar.GridSampler
	var err error
	if cfg.Prebuilt != nil && cfg.Prebuilt.Grid() == pl.Grid {
		gs = cfg.Prebuilt
		telemetry.SpanAttrBool(ctx, "chipmc.prebuilt_embedding", true)
	} else {
		gs, err = randvar.NewGridSamplerContext(ctx, cfg.Proc, pl.Grid)
	}
	if err == nil {
		err = fault.Failure(fault.SiteFFTSetup)
	}
	endSetup()
	if err != nil {
		return nil, err
	}
	tm, tn := gs.TorusDims()
	telemetry.SpanAttrStr(ctx, "chipmc.torus", fmt.Sprintf("%dx%d", tm, tn))
	telemetry.SpanAttrFloat(ctx, "chipmc.clamp_bias", gs.ClampBias())
	return gs, nil
}

// summarize reduces the per-trial totals, serially in trial order, to the
// run's moments and 5/95 % quantiles. The final-moment guard makes a NaN
// produced by any trial surface as a typed error, never as a silent NaN
// result.
func summarize(op string, totals []float64, keep bool) (Result, error) {
	var run stats.Running
	for _, total := range totals {
		run.Push(total)
	}
	res := Result{
		Mean:    run.Mean(),
		Std:     run.StdDev(),
		Q05:     stats.Quantile(totals, 0.05),
		Q95:     stats.Quantile(totals, 0.95),
		Samples: len(totals),
	}
	if keep {
		res.Trials = append([]float64(nil), totals...)
	}
	if err := lkerr.CheckFinite(op, "mean", res.Mean); err != nil {
		return Result{}, err
	}
	if err := lkerr.CheckFinite(op, "std", res.Std); err != nil {
		return Result{}, err
	}
	return res, nil
}

// buildGateStates precomputes each cell type's reachable states and
// cumulative state probabilities for inverse-CDF sampling, once per type,
// and points every gate at its type's table.
func buildGateStates(cfg Config, nl *netlist.Netlist) ([]*gateState, error) {
	const op = "chipmc.Run"
	byType := make(map[string]*gateState)
	gates := make([]*gateState, len(nl.Gates))
	for g, gate := range nl.Gates {
		gs := byType[gate.Type]
		if gs == nil {
			cc, err := cfg.Lib.Cell(gate.Type)
			if err != nil {
				return nil, lkerr.Wrap(lkerr.InvalidInput, op, err)
			}
			gs = &gateState{}
			cumP := 0.0
			for i := range cc.States {
				p := cc.StateProb(cc.States[i].State, cfg.SignalProb)
				if p == 0 {
					continue
				}
				cumP += p
				gs.states = append(gs.states, &cc.States[i])
				gs.cum = append(gs.cum, cumP)
			}
			if len(gs.states) == 0 {
				return nil, lkerr.New(lkerr.InvalidInput, op,
					"gate %d (%s) has no reachable states", g, gate.Type)
			}
			gs.cum[len(gs.cum)-1] = 1
			byType[gate.Type] = gs
		}
		gates[g] = gs
	}
	return gates, nil
}

// newCholesky assembles the n×n channel-length covariance over gate
// positions — Σ_ab = vd + σ_wid²·ρ_wid(d_ab), vd + σ_wid² on the diagonal —
// around a constant mean and factorizes it. vd is σ_D2D² for the joint
// field and 0 for the tail's WID-only factor (0 + x ≡ x, so both factors
// are bitwise those of a dedicated assembler). traced wraps the assembly
// and factorization in the chipmc.assemble and chipmc.cholesky spans.
func newCholesky(ctx context.Context, op string, proc *spatial.Process, pl *placement.Placement,
	vd, mean float64, traced bool) (*randvar.MVNSampler, error) {
	n := len(pl.Site)
	vw := proc.SigmaWID * proc.SigmaWID
	span := func(name string) func() {
		if !traced {
			return func() {}
		}
		return telemetry.StartSpan(ctx, name)
	}
	endAssemble := span("chipmc.assemble")
	cov := linalg.NewMatrix(n, n)
	for a := 0; a < n; a++ {
		if err := lkerr.FromContext(ctx, op); err != nil {
			return nil, err
		}
		cov.Set(a, a, vd+vw)
		for b := a + 1; b < n; b++ {
			rho := 0.0
			if vw > 0 {
				rho = proc.WIDCorr.Rho(pl.Dist(a, b))
			}
			c := vd + vw*rho
			cov.Set(a, b, c)
			cov.Set(b, a, c)
		}
	}
	endAssemble()
	means := make([]float64, n)
	for i := range means {
		means[i] = mean
	}
	endChol := span("chipmc.cholesky")
	sampler, err := randvar.NewMVNSampler(means, cov)
	endChol()
	if err != nil {
		// Factorization failures (non-PD covariance, NaN factor) are
		// numerical; the classification survives if already typed.
		return nil, lkerr.Wrap(lkerr.Numerical, op, err)
	}
	return sampler, nil
}
