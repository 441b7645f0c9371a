package main

import (
	"context"
	"fmt"
	"math"

	"leakest"
)

// mcPlaced runs the full-chip Monte Carlo over placed designs that cover
// every sampler route: dense Cholesky, FFT circulant embedding, scrambled
// Sobol, tail importance sampling, and per-tile fields.
type mcPlaced struct {
	lib     *leakest.Library
	est     *leakest.Estimator
	seed    int64
	designs map[string]placedDesign
	charS   float64
	placeS  []float64
	zMax    float64
}

// mcDesigns are the design sizes, by name.
var mcDesigns = []struct {
	name  string
	gates int
	// truth marks designs small enough for the exact O(n²) reference in
	// set-up; larger ones are checked against the linear estimate.
	truth bool
}{
	{"dense-1k", 32 * 32, true},
	{"fft-10k", 100 * 100, true},
	{"fft-20k", 141 * 141, true},
	{"fft-40k", 200 * 200, false},
}

// mcOps is one round: design, sampler, trials, tiles, tail trials. Every op
// runs at least 128 trials, so that the σ check below resolves a 50 % error.
// The odd op count puts the latency median inside one op's latencies
// (tail-is), not on the boundary between two.
var mcOps = []struct {
	name, design string
	sampler      leakest.MCSampler
	trials       int
	tiles        int
	tailTrials   int
}{
	{"dense", "dense-1k", leakest.SamplerAuto, 256, 0, 0},
	{"tail-is", "dense-1k", leakest.SamplerAuto, 256, 0, 1024},
	{"fft-10k", "fft-10k", leakest.SamplerAuto, 128, 0, 0},
	{"qmc-10k", "fft-10k", leakest.SamplerQMC, 256, 0, 0},
	{"fft-20k", "fft-20k", leakest.SamplerAuto, 128, 0, 0},
	{"fft-40k", "fft-40k", leakest.SamplerAuto, 128, 0, 0},
	{"tiled-40k", "fft-40k", leakest.SamplerAuto, 128, 4, 0},
}

// The MC checks. Standard errors come from the reference moments, never
// from the sampled ones. The mean is held to zMean standard errors σ/√n
// (the mean of n ≥ 128 trials is close to normal, so a correct run fails
// about once in 16 000 checks). The σ is held to zStd standard errors of
// the sample σ of the lognormal matched to the reference (lognormalStdSE),
// with zStd the z of the repository's conformance MC gates; against a
// linear reference the Fig. 6 envelope of the Random-Gate abstraction is
// added. The tail op's exceedance at the reference lognormal's (1 − tailP)
// quantile must not exceed tailFit·tailP by more than zMean of its standard
// error: the chip total has a heavier upper tail than the matched
// lognormal, and the exceedance there measured 1.4–2.1 × tailP (14 seeds,
// 8192 importance-sampled trials each). At 1024 importance-sampled trials
// its standard error is 10–30 % of the estimate, so the check catches an
// exceedance several times too high, not a 2× weight error; the
// repository's tail conformance gate covers that against a 10⁶-trial
// referee.
const (
	zMean   = 4.0
	zStd    = 5.0
	tailP   = 1e-3
	tailFit = 3.0
)

// lognormalStdSE is the standard error of the sample σ of n draws from the
// lognormal with the given mean and σ: Var(s²) ≈ σ⁴(κ − (n−3)/(n−1))/n with
// the lognormal kurtosis κ, and SE(s) ≈ SE(s²)/(2σ). With κ = 3 it is the
// normal-theory σ/√(2(n−1)); the chip totals here (σ/µ ≈ 0.22–0.26) have
// κ ≈ 3.9–4.1, which widens it by about a quarter, as the sampled σ of
// repeated runs shows.
func lognormalStdSE(mean, std float64, n int) float64 {
	s2 := math.Log1p((std / mean) * (std / mean))
	kurt := math.Exp(4*s2) + 2*math.Exp(3*s2) + 3*math.Exp(2*s2) - 3
	nf := float64(n)
	return std / 2 * math.Sqrt((kurt-(nf-3)/(nf-1))/nf)
}

func (w *mcPlaced) clients() int { return 1 }
func (w *mcPlaced) close()       {}

func (w *mcPlaced) setup(seed int64) error {
	lib, est, sec, err := library()
	if err != nil {
		return err
	}
	w.lib, w.est, w.charS, w.seed = lib, est, sec, seed
	w.designs, w.placeS = map[string]placedDesign{}, nil
	for _, d := range mcDesigns {
		pd, ps, err := randomPlaced(lib, seed, "mc-"+d.name, d.gates)
		if err != nil {
			return err
		}
		w.designs[d.name] = pd
		w.placeS = append(w.placeS, ps)
	}
	return nil
}

func (w *mcPlaced) prepare() ([]op, error) {
	refs := map[string]leakest.Result{}
	envs := map[string]float64{}
	for _, d := range mcDesigns {
		pd := w.designs[d.name]
		var ref leakest.Result
		var err error
		if d.truth {
			e := *w.est
			e.Workers = 2
			ref, err = e.TrueLeakage(pd.nl, pd.pl, 0.5)
		} else {
			var design leakest.Design
			if design, err = w.est.ExtractDesign(pd.nl, pd.pl, 0.5); err == nil {
				ref, err = w.est.Estimate(design, leakest.Linear)
			}
			envs[d.name] = fig6Envelope(pd.gates(), false)
		}
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", d.name, err)
		}
		refs[d.name] = ref
	}

	var ops []op
	for i, spec := range mcOps {
		pd := w.designs[spec.design]
		ref, env := refs[spec.design], envs[spec.design]
		mcSeed := w.seed*100 + int64(i)
		var specA float64
		if spec.tailTrials > 0 {
			dist, err := leakest.DistributionOf(ref)
			if err != nil {
				return nil, err
			}
			specA = dist.Quantile(1 - tailP)
		}
		seMean := ref.Std / math.Sqrt(float64(spec.trials))
		seStd := lognormalStdSE(ref.Mean, ref.Std, spec.trials)
		// A plain-MC exceedance (the importance sampler's health-gated
		// fallback) has the binomial error of the primary trials.
		seFallback := math.Sqrt(tailP * (1 - tailP) / float64(spec.trials))
		check := func(o outcome) error {
			zm := math.Abs(o.Mean-ref.Mean) / seMean
			zs := math.Abs(o.Std-ref.Std) / seStd
			w.zMax = math.Max(w.zMax, math.Max(zm, zs))
			if !(zm <= zMean) {
				return fmt.Errorf("MC mean %.6g is %.2f SE from the reference %.6g", o.Mean, zm, ref.Mean)
			}
			if allowed := zStd*seStd + env*ref.Std; !(math.Abs(o.Std-ref.Std) <= allowed) {
				return fmt.Errorf("MC σ %.6g is %.2f SE from the reference %.6g", o.Std, zs, ref.Std)
			}
			if spec.tailTrials == 0 {
				return nil
			}
			se := o.TailPSE
			if o.TailSource == "fallback" {
				if o.TailP != o.TailMCP {
					return fmt.Errorf("fallback exceedance %g differs from the plain-MC %g", o.TailP, o.TailMCP)
				}
				se = seFallback
			} else if o.TailSource != "is" {
				return fmt.Errorf("tail exceedance source %q, want is or fallback", o.TailSource)
			}
			if !(o.TailP >= 0 && o.TailP <= tailFit*tailP+zMean*se) {
				return fmt.Errorf("tail exceedance %g ± %g outside [0, %g] at the spec", o.TailP, se, tailFit*tailP)
			}
			return nil
		}
		mutations := []func(outcome) outcome{
			// A 5·SE shift of the mean, away from the reference.
			func(o outcome) outcome {
				o.Mean += math.Copysign(5*seMean, o.Mean-ref.Mean)
				return o
			},
			// The σ moved by half of itself, away from the reference.
			func(o outcome) outcome {
				if o.Std >= ref.Std {
					o.Std *= 1.5
				} else {
					o.Std *= 0.5
				}
				return o
			},
		}
		if spec.tailTrials > 0 {
			// An exceedance 20·tailP too high.
			mutations = append(mutations, func(o outcome) outcome {
				o.TailP += 20 * tailP
				return o
			})
		}
		ops = append(ops, op{
			name:  "mc/" + spec.name,
			gates: pd.gates(),
			do: func(ctx context.Context, workers int) (outcome, error) {
				e := *w.est
				e.Workers, e.Sampler, e.Tiles = workers, spec.sampler, spec.tiles
				if spec.tailTrials > 0 {
					e.Spec, e.TailTrials = specA, spec.tailTrials
				}
				mc, err := e.MonteCarloContext(ctx, pd.nl, pd.pl, 0.5, spec.trials, mcSeed)
				if err != nil {
					return outcome{}, err
				}
				o := outcome{Mean: mc.Mean, Std: mc.Std}
				if t := mc.Tail; t != nil {
					o.TailP, o.TailPSE, o.TailSource, o.TailMCP = t.P, t.SE, t.Source, t.MCP
				}
				return o, nil
			},
			check:     check,
			mutations: mutations,
		})
	}
	return ops, nil
}

func (w *mcPlaced) probe(m map[string]float64, _ *spanTree) error {
	m["charlib.characterize_s"] = w.charS
	m["charlib.leakage_evals_per_s"] = probeLeakage(w.lib)
	m["placement.autoplace_s"] = meanOf(w.placeS)
	m["chipmc.ref_z_max"] = w.zMax
	var fftDesigns, all []placedDesign
	for _, d := range mcDesigns {
		all = append(all, w.designs[d.name])
		if d.gates > 4000 && d.gates <= 40000 {
			fftDesigns = append(fftDesigns, w.designs[d.name])
		}
	}
	if err := probeGrids(m, w.est.Process(), gridsOf(fftDesigns), w.seed); err != nil {
		return err
	}
	return probeDesignIO(m, all)
}
