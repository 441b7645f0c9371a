package chipmc

import (
	"leakest/internal/lkerr"
	"leakest/internal/randvar"
	"leakest/internal/stats"
)

// This file is the quasi-Monte-Carlo deviate source behind SamplerQMC. It
// replaces pseudo-random deviates with one scrambled-Sobol sequence
// (randvar.SobolSeq) on whichever trial body the design takes:
//
//   - Grid route (large designs): the Sobol point index is the PAIR index
//     of the one grid body (grid.go), and one point's coordinates drive
//     both channels: coordinates 0/1 are the two trials' D2D deviates,
//     coordinates 2+2m/3+2m the two white-noise channels of leading
//     spectral mode m. Coordinates of a single scrambled point are jointly
//     uniform, so each extracted field keeps the exact field law and the
//     estimator stays unbiased; the remaining modes come from the pair's
//     own PRNG stream.
//
//   - Dense route (small designs): the Sobol point index is the trial
//     index; the first min(n, SobolMaxDims) field normals come from the
//     point and the rest from the trial's PRNG stream via
//     MVNSampler.SamplePartialInto (denseSource with a sequence attached).
//
// Per-gate state and Vt draws stay pseudo-random from the trial stream on
// both routes, exactly as in the dense/fft samplers.

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
