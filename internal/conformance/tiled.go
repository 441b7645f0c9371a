package conformance

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"leakest/internal/charlib"
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
//     serialization of a placed design must reproduce the in-memory result
//     bitwise, so the O(tile)-memory reader is moment-preserving by
//     construction.
//
// TiledSelfCheck proves the gates have teeth with two mutation targets:
// "tiled" scales every tiled analytic result, and "tile-count" scales only
// the middle tile count of the invariance sweep.

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
	if !cfg.lite {
		if err := h.runTiledStream(ctx); err != nil {
			return nil, fmt.Errorf("conformance: tiled-stream: %w", err)
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

// runTiledStream runs the streaming gate on a placed design: a mixed-cell
// random circuit on a 15×15 grid, always built at DefaultSeed so the
// geometry is stable at any harness seed. It serializes the design in
// leakest-stream format, scans it back accumulating only histogram +
// per-tile counts, and requires the re-estimated tiled moments to equal the
// in-memory ones bitwise.
func (h *harness) runTiledStream(ctx context.Context) error {
	const fx, tiles, n = "tiled-stream", 3, 225
	proc := spatial.Default90nm()
	mix, err := stats.NewHistogram(map[string]float64{"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1})
	if err != nil {
		return err
	}
	rng := stats.NewRNG(DefaultSeed, "conformance/tiled-stream")
	nl, err := netlist.RandomCircuit(rng, "conf-tiled", n, 8, mix, libArity(h.lib))
	if err != nil {
		return err
	}
	grid, err := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
	if err != nil {
		return err
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		return err
	}
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		return err
	}
	m, err := core.NewModel(h.lib, proc, spec, core.Analytic)
	if err != nil {
		return err
	}
	m.Workers = h.cfg.Workers

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
	h.check(fx, "tiled/stream-mean-vs-in-memory", KindExact, streamed.Mean, mono.Mean, Exact(),
		"one streaming pass (histogram + per-tile counts) reproduces the in-memory linear mean")
	h.check(fx, "tiled/stream-std-vs-in-memory", KindExact, streamed.Std, mono.Std, Exact(),
		"global moments depend only on (histogram, N, W, H); the stream carries them losslessly")
	return nil
}

// tiledMutationTargets are the self-check targets of the tiled suite.
var tiledMutationTargets = []string{"tiled", "tile-count"}

// TiledSelfCheck proves the tiled suite has teeth: each 1 % perturbation
// must make at least one gate fail on the lite fixture subset.
func TiledSelfCheck(ctx context.Context, cfg Config) ([]SelfCheckResult, error) {
	cfg = cfg.withDefaults()
	var out []SelfCheckResult
	for _, target := range tiledMutationTargets {
		for _, moment := range []string{"mean", "std"} {
			mcfg := cfg
			mcfg.Mutation = &Mutation{Target: target, Moment: moment, Factor: SelfCheckFactor}
			mcfg.lite = true
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
