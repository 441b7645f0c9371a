package conformance

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/core"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// The tiled conformance suite gates the DESIGN.md §16 tiled pipeline:
//
//  1. Diagnostics only — on every fixture the linear answer with a tile
//     breakdown attached must equal the plain linear answer bitwise at each
//     tile count, stay bitwise invariant across tile counts and worker
//     counts (tile stats included), and keep its per-tile bookkeeping
//     consistent: tile gates partition N and tile means sum to the chip
//     mean.
//  2. Streaming — per-tile gate counts accumulated from a leakest-stream
//     serialization must reproduce the in-memory result bitwise, so the
//     O(tile)-memory reader is moment-preserving by construction.
//  3. Sampled law — the tiled Monte Carlo must match an exact serial
//     pairwise reference of its own law (full TotalCorr within a tile, the
//     D2D CorrFloor across tiles) within z·SE, and be bitwise worker-
//     invariant.
//
// TiledSelfCheck proves the gates have teeth with three mutation targets:
// "tiled" scales every tiled analytic result, "tile-count" scales only the
// middle tile count of the invariance sweep, and "tiled-mc" scales the
// tiled Monte-Carlo moments.

// tiledTileCounts is the tile-count sweep of the exactness gates. The
// values are mutually coprime with the fixture grids' typical dimensions,
// so uneven largest-remainder partitions are exercised, not just even
// splits.
var tiledTileCounts = []int{2, 3, 5}

// tiledMutationMid is the tile count the "tile-count" mutation target
// perturbs — the middle of the sweep, so both the invariance chain and the
// monolithic comparison see the defect.
const tiledMutationMid = 3

// RunTiled executes the tiled conformance suite. Check failures land in
// the report; only infrastructure errors return non-nil.
func RunTiled(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	lib, err := charlib.SharedCore()
	if err != nil {
		return nil, err
	}
	rep := &Report{Short: cfg.Short, Seed: cfg.Seed, Workers: cfg.Workers}
	h := &harness{cfg: cfg, lib: lib, rep: rep}
	if !cfg.tiledMCOnly {
		fixtures, err := Fixtures(cfg.Short)
		if err != nil {
			return nil, err
		}
		for _, fx := range fixtures {
			if cfg.lite && !liteNames[fx.Name] {
				continue
			}
			if err := h.runTiledFixture(ctx, fx); err != nil {
				return nil, fmt.Errorf("conformance: tiled fixture %s: %w", fx.Name, err)
			}
		}
	}
	if !cfg.lite {
		if err := h.runTiledMC(ctx); err != nil {
			return nil, fmt.Errorf("conformance: tiled-mc: %w", err)
		}
	}
	rep.tally()
	return rep, nil
}

// runTiledFixture runs the analytic tiled gates on one fixture.
func (h *harness) runTiledFixture(ctx context.Context, fx Fixture) error {
	n := fx.N()
	spec := core.DesignSpec{
		Hist: fx.Hist, N: n,
		W:          float64(fx.Cols) * placement.DefaultSitePitch,
		H:          float64(fx.Rows) * placement.DefaultSitePitch,
		SignalProb: fx.SignalProb,
	}
	m, err := core.NewModelCtx(ctx, h.lib, fx.Proc, spec, core.Analytic)
	if err != nil {
		return err
	}
	m.Workers = h.cfg.Workers
	lin, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return err
	}

	var prev core.Result
	for i, t := range tiledTileCounts {
		res, err := tiledLinear(ctx, m, t, nil)
		if err != nil {
			return err
		}
		res = h.mutate("tiled", res)
		if t == tiledMutationMid {
			res = h.mutate("tile-count", res)
		}
		name := fmt.Sprintf("tiled/t%d", t)
		h.check(fx.Name, name+"-mean-vs-monolithic", KindExact, res.Mean, lin.Mean, Exact(),
			"a tile breakdown never changes the chip mean")
		h.check(fx.Name, name+"-std-vs-monolithic", KindExact, res.Std, lin.Std, Exact(),
			"a tile breakdown never changes the chip σ (§16: tile-interval lag regrouping is integer-exact)")
		gates := 0
		for _, ts := range res.TileStats {
			gates += ts.Gates
		}
		h.checkBehavior(fx.Name, name+"-gate-partition", gates == n,
			fmt.Sprintf("per-tile gate counts sum to %d, spec has %d", gates, n))
		tileMean := 0.0
		for _, ts := range res.TileStats {
			tileMean += ts.Mean
		}
		h.check(fx.Name, name+"-tile-mean-additivity", KindExact, tileMean, lin.Mean, Exact(),
			"tile means are linear in the gate counts and must sum to the chip mean")
		if i > 0 {
			h.checkBehavior(fx.Name, fmt.Sprintf("tiled/t%d-invariant-vs-t%d", t, tiledTileCounts[i-1]),
				res.Mean == prev.Mean && res.Std == prev.Std,
				"tiled moments must be bitwise invariant in the tile count")
		}
		prev = res
	}

	// Worker invariance: the serial run must reproduce the pooled one
	// bitwise, tile stats included (prev holds the last sweep result at
	// cfg.Workers).
	m.Workers = 1
	serial, err := tiledLinear(ctx, m, tiledTileCounts[len(tiledTileCounts)-1], nil)
	if err != nil {
		return err
	}
	m.Workers = h.cfg.Workers
	serial = h.mutate("tiled", serial)
	h.checkBehavior(fx.Name, "tiled/worker-invariance",
		serial.Mean == prev.Mean && serial.Std == prev.Std && slices.Equal(serial.TileStats, prev.TileStats),
		"tiled moments and tile stats must be bitwise identical at any worker count")
	return nil
}

// tiledLinear is the linear answer with the tiles×tiles breakdown attached,
// as leakest.Estimator returns it for Linear with Tiles > 1.
func tiledLinear(ctx context.Context, m *core.Model, tiles int, tileGates []int) (core.Result, error) {
	res, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return core.Result{}, err
	}
	res.TileStats, err = m.TileStatsCtx(ctx, tiles, tileGates)
	return res, err
}

// tiledMCFixture builds the placed design the sampled-law gates run on: a
// mixed-cell random circuit on a 15×15 grid under a short-range kernel
// (λ = 3 µm, hard range 12 µm — shorter than the 3-tile tile side), so the
// cross-tile covariance the tiled law floors at CorrFloor is a real but
// small term. Always built at DefaultSeed so the geometry is stable at any
// harness seed; cfg.Seed varies only the trial streams.
func tiledMCFixture(lib *charlib.Library) (*core.Model, *netlist.Netlist, *placement.Placement, error) {
	base := spatial.Default90nm()
	proc := &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 3, R: 12},
	}
	hist, err := stats.NewHistogram(map[string]float64{"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1})
	if err != nil {
		return nil, nil, nil, err
	}
	const n = 225
	rng := stats.NewRNG(DefaultSeed, "conformance/tiled-mc")
	nl, err := netlist.RandomCircuit(rng, "conf-tiled", n, 8, hist, libArity(lib))
	if err != nil {
		return nil, nil, nil, err
	}
	grid, err := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := core.NewModel(lib, proc, spec, core.Analytic)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, nl, pl, nil
}

// serialTiledTruthRef computes the exact first two moments of the tiled
// Monte-Carlo law by a plain serial pair sum: within a tile the pair
// correlation is the process TotalCorr at the gate distance; across tiles
// it is the D2D floor, because the tiled sampler draws independent WID
// fields per tile on top of one shared D2D deviate.
func serialTiledTruthRef(m *core.Model, nl *netlist.Netlist, pl *placement.Placement, tiles int) (mean, std float64, err error) {
	parts := placement.Partition(pl.Grid, tiles)
	tileOf := make([]int, len(nl.Gates))
	for g, s := range pl.Site {
		row, col := s/pl.Grid.Cols, s%pl.Grid.Cols
		for ti, t := range parts {
			if t.Contains(row, col) {
				tileOf[g] = ti
				break
			}
		}
	}
	floor := m.Proc.CorrFloor()
	n := len(nl.Gates)
	variance := 0.0
	xs := make([]float64, n)
	ys := make([]float64, n)
	for g, gate := range nl.Gates {
		mu, sigma, cerr := m.CellStats(gate.Type)
		if cerr != nil {
			return 0, 0, cerr
		}
		mean += mu
		variance += sigma * sigma
		xs[g], ys[g] = pl.Pos(g)
	}
	for a := 0; a < n; a++ {
		row := 0.0
		for b := a + 1; b < n; b++ {
			var rho float64
			if tileOf[a] == tileOf[b] {
				rho = m.Proc.TotalCorr(math.Hypot(xs[a]-xs[b], ys[a]-ys[b]))
			} else {
				rho = floor
			}
			if rho <= 0 {
				continue
			}
			cov, perr := m.PairCovAtCorr(nl.Gates[a].Type, nl.Gates[b].Type, rho)
			if perr != nil {
				return 0, 0, perr
			}
			if cov > 0 {
				row += 2 * cov
			}
		}
		variance += row
	}
	return mean, math.Sqrt(variance), nil
}

// runTiledMC runs the sampled-law and streaming gates.
func (h *harness) runTiledMC(ctx context.Context) error {
	const fx = "tiled-mc"
	m, nl, pl, err := tiledMCFixture(h.lib)
	if err != nil {
		return err
	}
	m.Workers = h.cfg.Workers
	const tiles = 3
	trials := 1500
	if h.cfg.Short {
		trials = 500
	}
	run := func(workers int) (chipmc.Result, error) {
		return chipmc.RunContext(ctx, chipmc.Config{
			Lib: h.lib, Proc: m.Proc, SignalProb: 0.5, Samples: trials,
			Seed: h.cfg.Seed, Workers: workers, Tiles: tiles, MaxGates: len(nl.Gates),
		}, nl, pl)
	}
	mc, err := run(h.cfg.Workers)
	if err != nil {
		return err
	}
	mc.Mean = h.mutateMC("tiled-mc", "mean", mc.Mean)
	mc.Std = h.mutateMC("tiled-mc", "std", mc.Std)

	refMean, refStd, err := serialTiledTruthRef(m, nl, pl, tiles)
	if err != nil {
		return err
	}
	h.check(fx, "tiled-mc/mean-vs-law", KindStatistical, mc.Mean, refMean,
		MeanSETol(refStd, trials, mcZ),
		fmt.Sprintf("tiled sampler vs the exact moments of its own law, %d trials", trials))
	h.check(fx, "tiled-mc/std-vs-law", KindStatistical, mc.Std, refStd,
		StdSETol(refStd, trials, 1.5*mcZ),
		"normal-theory σ SE widened 1.5× for the lognormal totals")

	serial, err := run(1)
	if err != nil {
		return err
	}
	h.checkBehavior(fx, "tiled-mc/worker-invariance",
		serial.Mean == mc.Mean && serial.Std == mc.Std,
		"per-(tile, trial) streams make the run bitwise worker-invariant")

	// Streaming gate: serialize the fixture in leakest-stream format, scan
	// it back accumulating only histogram + per-tile counts, and require the
	// re-estimated tiled moments to equal the in-memory ones bitwise.
	var buf bytes.Buffer
	if err := netlist.WritePlaced(&buf, nl, pl, tiles); err != nil {
		return err
	}
	typeCounts := map[string]float64{}
	tileGates := make([]int, len(placement.Partition(pl.Grid, tiles)))
	hdr, err := netlist.ScanPlaced(bytes.NewReader(buf.Bytes()), netlist.StreamVisitor{
		Gate: func(ti int, typ []byte, _, _ int) error {
			typeCounts[string(typ)]++
			tileGates[ti]++
			return nil
		},
	})
	if err != nil {
		return err
	}
	hist, err := stats.NewHistogram(typeCounts)
	if err != nil {
		return err
	}
	sm, err := core.NewModel(h.lib, m.Proc, core.DesignSpec{
		Hist: hist, N: hdr.Gates,
		W:          float64(hdr.Cols) * hdr.SiteW,
		H:          float64(hdr.Rows) * hdr.SiteH,
		SignalProb: 0.5,
	}, core.Analytic)
	if err != nil {
		return err
	}
	sm.Workers = h.cfg.Workers
	streamed, err := tiledLinear(ctx, sm, hdr.Tiles, tileGates)
	if err != nil {
		return err
	}
	streamed = h.mutate("tiled", streamed)
	mono, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return err
	}
	h.check(fx, "tiled-mc/stream-mean-vs-in-memory", KindExact, streamed.Mean, mono.Mean, Exact(),
		"one streaming pass (histogram + per-tile counts) reproduces the in-memory linear mean")
	h.check(fx, "tiled-mc/stream-std-vs-in-memory", KindExact, streamed.Std, mono.Std, Exact(),
		"global moments depend only on (histogram, N, W, H); the stream carries them losslessly")
	return nil
}

// mutateMC is the scalar mutation hook for the Monte-Carlo moments (they
// live in chipmc.Result, which h.mutate's core.Result signature can't
// carry).
func (h *harness) mutateMC(target, moment string, v float64) float64 {
	mu := h.cfg.Mutation
	if mu == nil || mu.Target != target || mu.Moment != moment {
		return v
	}
	return v * mu.Factor
}

// tiledMutationTargets are the self-check targets of the tiled suite.
var tiledMutationTargets = []string{"tiled", "tile-count", "tiled-mc"}

// TiledSelfCheck proves the tiled suite has teeth: each 1 % perturbation
// must make at least one gate fail. The analytic targets run the lite
// fixture subset; "tiled-mc" runs only the sampled-law stage.
func TiledSelfCheck(ctx context.Context, cfg Config) ([]SelfCheckResult, error) {
	cfg = cfg.withDefaults()
	var out []SelfCheckResult
	for _, target := range tiledMutationTargets {
		for _, moment := range []string{"mean", "std"} {
			mcfg := cfg
			mcfg.Mutation = &Mutation{Target: target, Moment: moment, Factor: SelfCheckFactor}
			mcfg.lite = target != "tiled-mc"
			mcfg.tiledMCOnly = target == "tiled-mc"
			rep, err := RunTiled(ctx, mcfg)
			if err != nil {
				return out, fmt.Errorf("conformance: tiled self-check %s/%s: %w", target, moment, err)
			}
			out = append(out, SelfCheckResult{
				Target: target, Moment: moment, Factor: SelfCheckFactor,
				Failed: rep.Failed, Caught: rep.Failed > 0,
			})
		}
	}
	return out, nil
}
