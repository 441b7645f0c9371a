package main

import (
	"context"
	"fmt"
	"math"

	"leakest"
	"leakest/internal/telemetry"
)

// truthPlaced is the Fig. 6 validation flow: each op computes the O(n²)
// exact statistics of one placed design (TrueLeakage) and the Eq. 17 linear
// estimate of its extracted characteristics, which must agree within the
// recorded Fig. 6 envelope.
type truthPlaced struct {
	lib     *leakest.Library
	est     *leakest.Estimator
	designs []placedDesign
	iscas   map[string]bool
	charS   float64
	placeS  []float64
}

// truthSides are the Fig. 6 design sizes (side² gates).
var truthSides = []int{50, 58, 66, 74, 82, 90, 98, 106}

// truthISCAS are the ISCAS85 stand-ins the Table 1 flow adds.
var truthISCAS = []string{"c5315", "c6288", "c7552"}

func (w *truthPlaced) clients() int { return 1 }
func (w *truthPlaced) close()       {}

func (w *truthPlaced) setup(seed int64) error {
	lib, est, sec, err := library()
	if err != nil {
		return err
	}
	w.lib, w.est, w.charS = lib, est, sec
	w.designs, w.placeS = nil, nil
	w.iscas = map[string]bool{}
	for _, side := range truthSides {
		d, ps, err := randomPlaced(lib, seed, fmt.Sprintf("fig6-%d", side*side), side*side)
		if err != nil {
			return err
		}
		w.designs = append(w.designs, d)
		w.placeS = append(w.placeS, ps)
	}
	for _, name := range truthISCAS {
		nl, pl, err := leakest.ISCASCircuit(lib, name, seed)
		if err != nil {
			return err
		}
		w.designs = append(w.designs, placedDesign{name: name, nl: nl, pl: pl})
		w.iscas[name] = true
	}
	return nil
}

// truthOp runs the op's public calls with the given worker count, each
// under a span of its own when ctx carries a trace.
func truthOp(ctx context.Context, est *leakest.Estimator, d placedDesign, workers int) (outcome, error) {
	e := *est
	e.Workers = workers
	cctx, end := telemetry.WithSpan(ctx, "bench.call.TrueLeakage")
	truth, err := e.TrueLeakageContext(cctx, d.nl, d.pl, 0.5)
	end()
	if err != nil {
		return outcome{}, err
	}
	end = telemetry.StartSpan(ctx, "bench.call.ExtractDesign")
	design, err := e.ExtractDesign(d.nl, d.pl, 0.5)
	end()
	if err != nil {
		return outcome{}, err
	}
	cctx, end = telemetry.WithSpan(ctx, "bench.call.Estimate")
	lin, err := e.EstimateContext(cctx, design, leakest.Linear)
	end()
	if err != nil {
		return outcome{}, err
	}
	return outcome{Mean: truth.Mean, Std: truth.Std, LinearMean: lin.Mean, LinearStd: lin.Std}, nil
}

func (w *truthPlaced) prepare() ([]op, error) {
	var ops []op
	for _, d := range w.designs {
		ref, err := truthOp(context.Background(), w.est, d, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		env := fig6Envelope(d.gates(), w.iscas[d.name])
		check := func(o outcome) error {
			if err := sameAs("truth", o.Mean, o.Std, ref.Mean, ref.Std); err != nil {
				return err
			}
			if err := sameAs("linear", o.LinearMean, o.LinearStd, ref.LinearMean, ref.LinearStd); err != nil {
				return err
			}
			// Σµ_g = n·µ_XI makes the two means agree exactly.
			if d := relDiff(o.Mean, o.LinearMean); !(d <= 1e-9) {
				return fmt.Errorf("truth mean deviates %.3g from the linear mean", d)
			}
			if d := relDiff(o.Std, o.LinearStd); !(d <= env) {
				return fmt.Errorf("truth σ deviates %.2f%% from the linear σ, envelope %.2f%%", 100*d, 100*env)
			}
			return nil
		}
		if err := check(ref); err != nil {
			return nil, fmt.Errorf("%s reference: %w", d.name, err)
		}
		ops = append(ops, op{
			name:  "truth/" + d.name,
			gates: d.gates(),
			do: func(ctx context.Context, workers int) (outcome, error) {
				return truthOp(ctx, w.est, d, workers)
			},
			check:     check,
			mutations: []func(outcome) outcome{func(o outcome) outcome { o.Std *= 1.02; return o }},
		})
	}
	return ops, nil
}

func (w *truthPlaced) probe(m map[string]float64, _ *spanTree) error {
	m["charlib.characterize_s"] = w.charS
	m["charlib.leakage_evals_per_s"] = probeLeakage(w.lib)
	m["placement.autoplace_s"] = meanOf(w.placeS)
	if err := probeGrids(m, w.est.Process(), gridsOf(w.designs), 1); err != nil {
		return err
	}
	return probeDesignIO(m, w.designs)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
