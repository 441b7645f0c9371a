package chipmc

import (
	"context"
	"strconv"
	"time"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file is the tiled field source of DESIGN.md §16. The placement grid
// is partitioned into a Tiles×Tiles arrangement; each trial draws one
// chip-wide D2D deviate from its own stream, then a WID-only field per tile
// from the tile's own circulant embedding and its own per-(tile, trial)
// stream. Field memory scales with the largest tile instead of the die —
// the monolithic FFT path walls out at the 4096² torus cap — which is what
// lifts the MC gate budget to DefaultMaxGatesTiled. The sampled law keeps
// the exact within-tile correlation and drops cross-tile WID correlation to
// the D2D floor; the conformance harness gates that approximation against
// an exact pairwise reference (internal/conformance, tiled gates).

// DefaultMaxGatesTiled is the default gate bound for the tiled sampler.
// Per-trial cost is ΣS_t log S_t over tile torus sizes plus O(n) gate
// evaluation; memory is O(n) gate state plus O(largest tile) field scratch
// per worker.
const DefaultMaxGatesTiled = 2000000

// tileSlot holds one tile's share of the design: which sampler geometry it
// uses and which gates (with their tile-local site indices) it covers.
type tileSlot struct {
	// sampler indexes tiledSource.samplers; -1 for a tile with no gates.
	sampler int
	gates   []int
	sites   []int
}

// tiledSource is the per-tile field. Worker buffers hold one field and FFT
// scratch per distinct sampler geometry — at most four under the
// largest-remainder partition — not per tile, and reuse them across every
// tile and trial.
type tiledSource struct {
	sigmaD2D float64
	// d2dStream seeds the shared per-trial D2D deviate, gateStream the
	// per-gate state/Vt draws, and tileStreams[t] the tile-t field draws.
	// Every stream is keyed by (Seed, trial), so trials are bitwise
	// independent of worker scheduling.
	d2dStream   stats.Stream
	gateStream  stats.Stream
	tileStreams []stats.Stream
	slots       []tileSlot
	samplers    []*randvar.GridSampler
}

func (s *tiledSource) warm(b *trialBuf) { b.warmGrids(s.samplers) }

// fill draws the shared D2D deviate, then each tile's field in tile-index
// order, then reseeds to the gate stream: each stage reseeds the worker RNG
// from its own stream.
func (s *tiledSource) fill(b *trialBuf, trial int, tilt float64) (float64, error) {
	rng := b.rng
	rng.Seed(s.d2dStream.SeedFor(trial))
	z0 := rng.NormFloat64()
	shift := s.sigmaD2D * (z0 + tilt)
	for ti := range s.slots {
		slot := &s.slots[ti]
		if slot.sampler < 0 {
			continue
		}
		field := b.fields[slot.sampler]
		rng.Seed(s.tileStreams[ti].SeedFor(trial))
		if err := s.samplers[slot.sampler].SampleInto(rng, b.scs[slot.sampler], field); err != nil {
			return 0, err
		}
		for i, g := range slot.gates {
			b.ls[g] = field[slot.sites[i]] + shift
		}
	}
	rng.Seed(s.gateStream.SeedFor(trial))
	return z0, nil
}

// newTiledSource partitions the placement, assigns gates to tiles, and
// builds one WID-only grid sampler per distinct tile geometry. It observes
// tile_duration_seconds per tile and chipmc_tiles_total per run.
func newTiledSource(ctx context.Context, cfg Config, nl *netlist.Netlist, pl *placement.Placement) (*tiledSource, error) {
	const op = "chipmc.Run"
	grid := pl.Grid
	parts := placement.Partition(grid, cfg.Tiles)
	telemetry.Add("chipmc_tiles_total", int64(len(parts)))
	telemetry.SpanAttrInt(ctx, "chipmc.tiles", int64(len(parts)))

	// Row/column → tile-coordinate lookups from the partition edges.
	rowEdges := placement.TileEdges(grid.Rows, cfg.Tiles)
	colEdges := placement.TileEdges(grid.Cols, cfg.Tiles)
	rowTile := edgeLookup(rowEdges, grid.Rows)
	colTile := edgeLookup(colEdges, grid.Cols)
	tc := len(colEdges) - 1

	slots := make([]tileSlot, len(parts))
	for i := range slots {
		slots[i].sampler = -1
	}
	for g, s := range pl.Site {
		row, col := s/grid.Cols, s%grid.Cols
		ti := rowTile[row]*tc + colTile[col]
		t := parts[ti]
		local := (row-t.Row0)*t.Cols() + (col - t.Col0)
		slots[ti].gates = append(slots[ti].gates, g)
		slots[ti].sites = append(slots[ti].sites, local)
	}

	endSetup := telemetry.StartSpan(ctx, "chipmc.tile_setup")
	defer endSetup()
	widProc := cfg.Proc.WIDOnly()
	type dims struct{ rows, cols int }
	samplerIdx := make(map[dims]int)
	var samplers []*randvar.GridSampler
	for ti, t := range parts {
		if len(slots[ti].gates) == 0 {
			continue
		}
		start := time.Now()
		d := dims{t.Rows(), t.Cols()}
		idx, ok := samplerIdx[d]
		if !ok {
			sub := placement.Grid{Rows: d.rows, Cols: d.cols, SiteW: grid.SiteW, SiteH: grid.SiteH}
			gs, gerr := randvar.NewGridSamplerContext(ctx, widProc, sub)
			if gerr == nil {
				if ferr := fault.Failure(fault.SiteFFTSetup); ferr != nil {
					gs, gerr = nil, ferr
				}
			}
			if gerr != nil {
				return nil, lkerr.Wrap(lkerr.Numerical, op, gerr)
			}
			idx = len(samplers)
			samplers = append(samplers, gs)
			samplerIdx[d] = idx
		}
		slots[ti].sampler = idx
		if telemetry.MetricsOn() {
			telemetry.ObserveSeconds("tile_duration_seconds", time.Since(start).Seconds())
		}
	}

	src := &tiledSource{
		sigmaD2D:    cfg.Proc.SigmaD2D,
		d2dStream:   stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/d2d#"),
		gateStream:  stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/tilegates#"),
		tileStreams: make([]stats.Stream, len(parts)),
		slots:       slots,
		samplers:    samplers,
	}
	for ti := range parts {
		src.tileStreams[ti] = stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/tile"+strconv.Itoa(ti)+"/trial#")
	}
	return src, nil
}

// edgeLookup expands partition edges into a per-unit tile-coordinate table:
// out[i] is the tile row (or column) that unit i falls in.
func edgeLookup(edges []int, dim int) []int {
	out := make([]int, dim)
	for t := 0; t < len(edges)-1; t++ {
		for i := edges[t]; i < edges[t+1]; i++ {
			out[i] = t
		}
	}
	return out
}
