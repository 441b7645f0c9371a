package chipmc

import (
	"context"
	"math/rand"

	"leakest/internal/fault"
	"leakest/internal/fft"
	"leakest/internal/lkerr"
	"leakest/internal/parallel"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file is the quasi-Monte-Carlo trial fan-out behind SamplerQMC.
//
// Two trial bodies share one scrambled-Sobol sequence (randvar.SobolSeq):
//
//   - Grid path (large designs): trials come in Dietrich–Newsam pairs — the
//     real and imaginary parts of one inverse-transformed pair torus are two
//     independent N(0, C) fields. The Sobol point index is the PAIR index,
//     and one point's coordinates drive both channels: coordinate 0/1 are
//     the two trials' D2D deviates, coordinates 2+2m/3+2m the two white-
//     noise channels of leading spectral mode m. Coordinates of a single
//     scrambled point are jointly uniform, so each extracted field keeps the
//     exact field law and the estimator stays unbiased; the remaining modes
//     come from the pair's own PRNG stream. Pair toruses are batched
//     Config.Batch fields at a time through one fft.Transform2DBatchInto
//     pass, whose per-member butterflies are bitwise those of the unbatched
//     transform — so totals are bitwise invariant under both the worker
//     count and the batch size.
//
//   - Dense path (small designs): the Sobol point index is the trial index;
//     the first min(n, SobolMaxDims) field normals come from the point and
//     the rest from the trial's PRNG stream via MVNSampler.SamplePartialInto.
//     This is the dense field source with a sequence attached (denseSource
//     in chipmc.go), so it runs through the common trial fan-out.
//
// Per-gate state and Vt draws stay pseudo-random from the trial stream in
// both bodies, exactly as in the dense/fft samplers.

// DefaultBatch is the default number of trial fields per batched FFT pass.
// Eight 32×32 toruses are ≈128 KiB of complex spectrum — comfortably cache-
// resident per worker while still amortizing the column-block twiddle walk.
const DefaultBatch = 8

// qmcSeq builds the run's Sobol sequence: dims low-discrepancy dimensions,
// scramble seed derived from (Config.Seed, netlist name) through the same
// FNV stream construction as the trial streams, and the optional
// conformance-only degrade mode.
func qmcSeq(cfg Config, name string, dims int) (*randvar.SobolSeq, error) {
	seed := stats.NewStream(cfg.Seed, "chipmc/"+name+"/qscramble#").SeedFor(0)
	if cfg.QMCDegrade != "" {
		seq, err := randvar.NewSobolDegraded(dims, seed, cfg.QMCDegrade)
		if err != nil {
			return nil, lkerr.Wrap(lkerr.InvalidInput, "chipmc.Run", err)
		}
		return seq, nil
	}
	seq, err := randvar.NewSobol(dims, seed)
	if err != nil {
		return nil, lkerr.Wrap(lkerr.InvalidInput, "chipmc.Run", err)
	}
	return seq, nil
}

// qmcGridBuf is one worker's private grid-path state: a batch of pair
// toruses, the FFT scratch, and the per-pair/per-trial deviate buffers. All
// of it is warmed once; the batch body is allocation-free afterwards
// (guarded by TestQMCTrialBodyAllocs).
type qmcGridBuf struct {
	rng     *rand.Rand   // per-pair spectrum stream
	trng    *rand.Rand   // per-trial state/Vt stream
	toruses []complex128 // batchPairs × TorusLen pair spectra
	scratch []complex128 // fft column scratch
	zq      []float64    // one Sobol point's normal deviates
	z0      []float64    // (z0a, z0b) per pair in the batch
	fa, fb  []float64    // the pair's two extracted fields
	ls      []float64    // per-gate channel lengths
}

// runQMCGrid is the large-design body: batched Dietrich–Newsam pair fields
// on the grid source's sampler, read out at its sites; the per-trial state
// and Vt draws come from the source's trial stream, as in its fill.
func runQMCGrid(ctx context.Context, cfg Config, name string, runner *trialRunner, src *gridSource,
	totals []float64, workers int, tick *parallel.Ticker, trialsC *telemetry.Counter) error {
	const op = "chipmc.Run"
	gs := src.gs
	modes := gs.TopModes((randvar.SobolMaxDims - 2) / 2)
	qdims := 2 + 2*len(modes)
	seq, err := qmcSeq(cfg, name, qdims)
	if err != nil {
		return err
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = DefaultBatch
	}
	batchPairs := (batch + 1) / 2
	if batchPairs < 1 {
		batchPairs = 1
	}
	npairs := (cfg.Samples + 1) / 2
	nbatches := (npairs + batchPairs - 1) / batchPairs
	tm, tn := gs.TorusDims()
	tlen := gs.TorusLen()
	pairStream := stats.NewStream(cfg.Seed, "chipmc/"+name+"/qpair#")

	telemetry.SetGauge("chipmc_qmc_batch_size", float64(2*batchPairs))
	telemetry.SpanAttrInt(ctx, "chipmc.batch", int64(2*batchPairs))
	telemetry.SpanAttrInt(ctx, "chipmc.qmc_dims", int64(qdims))

	bufs := make([]qmcGridBuf, workers)
	return parallel.ForEach(ctx, op, workers, nbatches, func(w, bi int) error {
		b := &bufs[w]
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(1))
			b.trng = rand.New(rand.NewSource(1))
			b.toruses = make([]complex128, batchPairs*tlen)
			b.scratch = make([]complex128, fft.Scratch2DLen(tm, tn))
			b.zq = make([]float64, qdims)
			b.z0 = make([]float64, 2*batchPairs)
			b.fa = make([]float64, gs.Grid().Sites())
			b.fb = make([]float64, gs.Grid().Sites())
			b.ls = make([]float64, len(runner.gates))
		}
		p0 := bi * batchPairs
		np := batchPairs
		if p0+np > npairs {
			np = npairs - p0
		}
		// Phase 1: fill the batch's pair spectra. Everything a pair needs is
		// keyed by its global index p, so batch grouping cannot change it.
		for j := 0; j < np; j++ {
			p := p0 + j
			torus := b.toruses[j*tlen : (j+1)*tlen]
			b.rng.Seed(pairStream.SeedFor(p))
			gs.FillPairSpectrum(b.rng, torus)
			seq.NormalsInto(uint32(p), b.zq)
			b.z0[2*j], b.z0[2*j+1] = b.zq[0], b.zq[1]
			for m, k := range modes {
				gs.SetMode(torus, k, b.zq[2+2*m], b.zq[3+2*m])
			}
		}
		// Phase 2: one inverse FFT pass over the whole batch.
		if err := fft.Transform2DBatchInto(b.toruses[:np*tlen], np, tm, tn, true, b.scratch); err != nil {
			return lkerr.Wrap(lkerr.Numerical, op, err)
		}
		// Phase 3: unpack each pair into its two trials.
		for j := 0; j < np; j++ {
			p := p0 + j
			gs.ExtractPair(b.toruses[j*tlen:(j+1)*tlen], b.z0[2*j], b.z0[2*j+1], b.fa, b.fb)
			for t := 0; t < 2; t++ {
				trial := 2*p + t
				if trial >= cfg.Samples {
					break
				}
				trialsC.Inc()
				fault.Hit(fault.SiteChipMCTrial)
				f := b.fa
				if t == 1 {
					f = b.fb
				}
				for g, s := range src.sites {
					b.ls[g] = f[s]
				}
				b.trng.Seed(src.stream.SeedFor(trial))
				total := chipTotal(runner.gates, b.trng, b.ls, runner.sigmaVt)
				totals[trial] = fault.Corrupt(fault.SiteChipMCTrial, total)
				tick.Tick()
			}
		}
		return nil
	})
}
