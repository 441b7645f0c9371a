package chipmc

import (
	"context"

	"leakest/internal/fft"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file is the one grid trial body, shared by the fft route, the qmc
// grid route and the tail's importance-sampled grid proposal. Trials come
// in Dietrich–Newsam pairs: the real and imaginary parts of one
// inverse-transformed pair torus are two independent N(0, C) fields, so
// pair p yields trials 2p and 2p+1 (an odd trial count drops the last
// pair's second field). Pair toruses are batched batchPairs at a time
// through one fft.Transform2DBatchInto pass, whose per-member butterflies
// are bitwise those of the unbatched transform; its column pass stops at
// the grid's columns, the only ones ExtractPair reads.
//
// The deviate source is the only difference between the routes. Each pair
// seeds the worker RNG from its pair stream and draws its white-noise
// spectrum, then its two raw D2D deviates (randvar.DrawPair). With a Sobol
// sequence attached (the qmc route) point p then overrides both D2D
// deviates and the leading spectral modes. The tail pass adds θ to both D2D
// deviates and records the raw values for the likelihood-ratio weights.
// Every trial's per-gate state and Vt draws come from the trial stream, so
// totals are bitwise invariant in the worker count and the batch size.

// DefaultBatch caps the default number of trial fields per batched FFT pass
// (DefaultBatch/2 pair toruses; see batchPairs). Eight 32×32 toruses are
// ≈128 KiB of complex spectrum — comfortably cache-resident per worker while
// still amortizing the per-pass work of a small transform.
const DefaultBatch = 8

// gridBatchBytes is the per-worker torus budget of the default pair batch:
// 4 pairs at the 256² torus, 1 pair at 512² and above.
const gridBatchBytes = 4 << 20

// batchPairs is the number of pair toruses per batched FFT pass: an
// explicit Batch rounded up to whole pairs, else the largest count
// ≤ DefaultBatch/2 whose toruses (16 bytes a point) fit in gridBatchBytes.
func batchPairs(batch, torusLen int) int {
	if batch > 0 {
		return (batch + 1) / 2
	}
	return max(1, min(DefaultBatch/2, gridBatchBytes/(16*torusLen)))
}

// gridBody is the grid route of one trial pass: the circulant embedding,
// each gate's site, the streams, and the optional Sobol deviate source.
type gridBody struct {
	gs    *randvar.GridSampler
	sites []int
	// pairStream seeds each pair's spectrum and pseudo-random D2D
	// deviates; trialStream each trial's per-gate state and Vt draws.
	pairStream, trialStream stats.Stream
	// seq, when set, supplies point p's D2D deviates (coordinates 0 and 1)
	// and the two channels of leading mode modes[m] (coordinates 2+2m and
	// 3+2m) of every pair p.
	seq        *randvar.SobolSeq
	modes      []int
	batchPairs int
}

// useSobol attaches the qmc deviate source: the leading modes that fit the
// Sobol dimension cap, the run's scrambled sequence, and the qpair# stream
// for the remaining modes (its own name, distinct from the fft route's
// pair#, so the recorded qmc draws of TestRouteStreamsFrozen hold).
func (g *gridBody) useSobol(ctx context.Context, cfg Config, name string) error {
	g.modes = g.gs.TopModes((randvar.SobolMaxDims - 2) / 2)
	qdims := 2 + 2*len(g.modes)
	seq, err := qmcSeq(cfg, name, qdims)
	if err != nil {
		return err
	}
	g.seq = seq
	g.pairStream = stats.NewStream(cfg.Seed, "chipmc/"+name+"/qpair#")
	telemetry.SetGauge("chipmc_qmc_batch_size", float64(2*g.batchPairs))
	telemetry.SpanAttrInt(ctx, "chipmc.qmc_dims", int64(qdims))
	return nil
}

// batches is the number of pair batches covering trials.
func (g *gridBody) batches(trials int) int {
	npairs := (trials + 1) / 2
	return (npairs + g.batchPairs - 1) / g.batchPairs
}

// batch draws pair batch bi into p's trial slots: fill the batch's pair
// spectra, run one inverse FFT pass over them, then extract each pair into
// its two trials. Everything a pair or trial draws is keyed by its global
// index, so batch grouping cannot change it.
func (g *gridBody) batch(r *trialRunner, b *trialBuf, bi int, p *pass) error {
	trials := len(p.totals)
	p0 := bi * g.batchPairs
	np := min(g.batchPairs, (trials+1)/2-p0)
	tlen := g.gs.TorusLen()
	for j := 0; j < np; j++ {
		pair := p0 + j
		torus := b.toruses[j*tlen : (j+1)*tlen]
		b.rng.Seed(g.pairStream.SeedFor(pair))
		za, zb := g.gs.DrawPair(b.rng, torus)
		if g.seq != nil {
			g.seq.NormalsInto(uint32(pair), b.zq)
			za, zb = b.zq[0], b.zq[1]
			for m, k := range g.modes {
				g.gs.SetMode(torus, k, b.zq[2+2*m], b.zq[3+2*m])
			}
		}
		b.z0[2*j], b.z0[2*j+1] = za, zb
	}
	// The column pass keeps the grid's columns. A process without WID
	// variation embeds on a 1×1 torus narrower than the grid, whose one
	// column ExtractPair ignores.
	tm, tn := g.gs.TorusDims()
	if err := fft.Transform2DBatchInto(b.toruses[:np*tlen], np, tm, tn, min(g.gs.Grid().Cols, tn), true); err != nil {
		return err
	}
	for j := 0; j < np; j++ {
		g.gs.ExtractPair(b.toruses[j*tlen:(j+1)*tlen], b.z0[2*j], b.z0[2*j+1], p.tilt, b.fa, b.fb)
		for c, field := range [2][]float64{b.fa, b.fb} {
			trial := 2*(p0+j) + c
			if trial >= trials {
				break
			}
			for gi, site := range g.sites {
				b.ls[gi] = field[site]
			}
			b.rng.Seed(g.trialStream.SeedFor(trial))
			r.finish(p, b.rng, b.ls, trial, b.z0[2*j+c])
		}
	}
	return nil
}
