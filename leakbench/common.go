package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/conformance"
	"leakest/internal/experiments"
	"leakest/internal/fft"
	"leakest/internal/placement"
	"leakest/internal/randvar"
)

// charSeed is the characterization seed the library and the service use.
const charSeed = 20070604

// benchWeights is the cell mix of the random placed designs: the ISCAS cell
// subset in the proportions the repository's own benchmarks use.
var benchWeights = map[string]float64{
	"INV_X1": 25, "BUF_X1": 5, "NAND2_X1": 25, "NAND3_X1": 8,
	"NOR2_X1": 15, "AND2_X1": 12, "OR2_X1": 6, "XOR2_X1": 4,
}

// placedDesign is one netlist with its placement.
type placedDesign struct {
	name string
	nl   *leakest.Netlist
	pl   *leakest.Placement
}

func (d placedDesign) gates() int { return len(d.nl.Gates) }

// library characterizes the ISCAS cell subset under the Fig. 6 process
// and returns it with an estimator at that process.
func library() (*leakest.Library, *leakest.Estimator, float64, error) {
	proc := experiments.ChipProcess()
	start := time.Now()
	lib, err := leakest.Characterize(cells.ISCASSubset(), leakest.CharConfig{Process: proc, Seed: charSeed})
	if err != nil {
		return nil, nil, 0, err
	}
	sec := time.Since(start).Seconds()
	est, err := leakest.NewEstimator(lib, proc)
	if err != nil {
		return nil, nil, 0, err
	}
	return lib, est, sec, nil
}

// randomPlaced generates and auto-places an n-gate random design; it
// returns the AutoPlace time as well.
func randomPlaced(lib *leakest.Library, seed int64, name string, n int) (placedDesign, float64, error) {
	hist, err := leakest.NewHistogram(benchWeights)
	if err != nil {
		return placedDesign{}, 0, err
	}
	nl, err := leakest.RandomCircuit(lib, seed, name, n, 16, hist)
	if err != nil {
		return placedDesign{}, 0, err
	}
	start := time.Now()
	pl, err := leakest.AutoPlace(nl, seed)
	if err != nil {
		return placedDesign{}, 0, err
	}
	return placedDesign{name: name, nl: nl, pl: pl}, time.Since(start).Seconds(), nil
}

// fig6Envelope is the recorded Fig. 6 (E4) bound, in relative units, on the
// deviation of one placed design's exact σ from its Random-Gate estimate;
// ISCAS circuits also get the recorded Table 1 (E5) bound.
func fig6Envelope(n int, iscas bool) float64 {
	env, _ := conformance.RecordedEnvelope("e4.envelope", n)
	if iscas {
		e5, _ := conformance.RecordedEnvelope("e5.std_err_worst", 0)
		env = math.Max(env, e5)
	}
	return env / 100
}

// relDiff is |a−b| relative to |b|.
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// sameAs checks an outcome's moments against a reference to within
// floating-point reordering: every estimator is deterministic, so a
// repeated call must reproduce its reference.
func sameAs(what string, mean, std, refMean, refStd float64) error {
	const tol = 1e-12
	if d := relDiff(mean, refMean); !(d <= tol) {
		return fmt.Errorf("%s mean %.9g differs from reference %.9g (rel %.2g)", what, mean, refMean, d)
	}
	if d := relDiff(std, refStd); !(d <= tol) {
		return fmt.Errorf("%s σ %.9g differs from reference %.9g (rel %.2g)", what, std, refStd, d)
	}
	return nil
}

// probeLeakage measures StateChar.Leakage evaluations per second over every
// characterized state of lib, across ±3σ of channel length.
func probeLeakage(lib *leakest.Library) float64 {
	proc := lib.Process
	const points = 64
	ls := make([]float64, points)
	for i := range ls {
		ls[i] = proc.LNominal + proc.TotalSigma()*(-3+6*float64(i)/(points-1))
	}
	evals, sink := 0, 0.0
	start := time.Now()
	for evals < 2_000_000 {
		for ci := range lib.Cells {
			for si := range lib.Cells[ci].States {
				st := &lib.Cells[ci].States[si]
				for _, l := range ls {
					sink += st.Leakage(l)
				}
				evals += points
			}
		}
	}
	sec := time.Since(start).Seconds()
	if math.IsNaN(sink) {
		logf("leakage probe produced NaN")
	}
	return float64(evals) / sec
}

// probeGrids runs the randvar and fft layer probes at each grid: the
// circulant embedding (NewGridSampler), field draws (SampleInto), and the
// 2-D transform (Transform2DInto) at the sampler's torus dimensions. The
// flop and byte figures are computed from the transform size, not measured.
func probeGrids(m map[string]float64, proc *leakest.Process, grids []placement.Grid, seed int64) error {
	if len(grids) == 0 {
		return nil
	}
	const draws, transforms = 8, 8
	var embedSec, drawSec, fftSec, flops, bytes float64
	rng := rand.New(rand.NewSource(seed))
	for _, g := range grids {
		start := time.Now()
		gs, err := randvar.NewGridSampler(proc, g)
		if err != nil {
			return fmt.Errorf("grid %dx%d: %w", g.Rows, g.Cols, err)
		}
		embedSec += time.Since(start).Seconds()

		sc := gs.NewScratch()
		field := make([]float64, g.Sites())
		start = time.Now()
		for i := 0; i < draws; i++ {
			if err := gs.SampleInto(rng, sc, field); err != nil {
				return err
			}
		}
		drawSec += time.Since(start).Seconds()

		tm, tn := gs.TorusDims()
		x := make([]complex128, tm*tn)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		scratch := make([]complex128, fft.Scratch2DLen(tm, tn))
		start = time.Now()
		for i := 0; i < transforms; i++ {
			if err := fft.Transform2DInto(x, tm, tn, i%2 == 1, scratch); err != nil {
				return err
			}
		}
		fftSec += time.Since(start).Seconds()
		n := float64(tm * tn)
		flops += 5 * n * math.Log2(n)
		bytes += 2 * 16 * n * math.Log2(n)
	}
	k := float64(len(grids))
	m["randvar.embed_s"] = embedSec / k
	m["randvar.field_draws_per_s"] = draws * k / drawSec
	m["fft.transform2d_s"] = fftSec / (transforms * k)
	m["fft.flops_computed"] = flops / k
	m["fft.bytes_computed"] = bytes / k
	return nil
}

// gridsOf returns the placement grids of designs.
func gridsOf(ds []placedDesign) []placement.Grid {
	var gs []placement.Grid
	for _, d := range ds {
		gs = append(gs, d.pl.Grid)
	}
	return gs
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
