package core

import (
	"context"
	"math"
	"time"

	"leakest/internal/lkerr"
	"leakest/internal/placement"
	"leakest/internal/telemetry"
)

// This file is the per-tile diagnostics of DESIGN.md §16: the model's RG
// array is partitioned into a T×T arrangement of tiles and each tile gets
// its standalone linear-method moments. The chip-level answer never depends
// on the tiling: regrouping Eq. 17's ordered site pairs by tile interval
// reproduces the monolithic lag multiplicities integer-for-integer
// (tiled_test.go proves the identity), so a tiled combination would only
// recompute EstimateLinear's bits. Callers attach TileStats to whichever
// estimator answered.

// TileStat is one tile's moment record in Result.TileStats: the tile's
// position in the tile arrangement, its gate count, and its standalone
// linear-method moments.
type TileStat struct {
	// Index is the tile's position in row-major tile order.
	Index int `json:"index"`
	// Row and Col locate the tile in the tile arrangement (not site units).
	Row int `json:"row"`
	Col int `json:"col"`
	// Gates is the number of gates attributed to the tile.
	Gates int `json:"gates"`
	// Mean and Std are the tile's standalone full-tile moments in amperes,
	// from the linear method on the tile's own sub-grid.
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// allocateTileGates distributes n gates over the tiles proportionally to
// their site counts with the largest-remainder rule (ties broken by tile
// index), so the allocation is deterministic and sums to n exactly.
func allocateTileGates(n int, tiles []placement.Tile) []int {
	total := int64(0)
	for _, t := range tiles {
		total += int64(t.Sites())
	}
	counts := make([]int, len(tiles))
	if total == 0 {
		return counts
	}
	rems := make([]int64, len(tiles))
	assigned := 0
	for i, t := range tiles {
		share := int64(n) * int64(t.Sites())
		counts[i] = int(share / total)
		rems[i] = share % total
		assigned += counts[i]
	}
	for assigned < n {
		best := -1
		for i, r := range rems {
			if r > 0 && (best < 0 || r > rems[best]) {
				best = i
			}
		}
		if best < 0 {
			best = 0
		}
		counts[best]++
		rems[best] = -1
		assigned++
	}
	return counts
}

// TiledPartitionLen reports how many tiles TileStatsCtx produces for a
// tiles-per-side request on this model's RG array — callers supplying their
// own per-tile gate counts (e.g. the streaming estimator) use it to check
// their partition matches before handing the counts over.
func (m *Model) TiledPartitionLen(tiles int) int {
	rows, cols := m.modelGrid()
	return (len(placement.TileEdges(rows, tiles)) - 1) * (len(placement.TileEdges(cols, tiles)) - 1)
}

// tileGrid partitions the model's RG array into the tile arrangement for
// the requested tile count and validates the optional per-tile gate
// allocation, falling back to the proportional rule when none is given.
func (m *Model) tileGrid(tiles int, tileGates []int) (parts []placement.Tile, counts []int, err error) {
	const op = "core.TileStats"
	if tiles < 1 {
		return nil, nil, lkerr.New(lkerr.InvalidInput, op, "tile count must be ≥ 1, got %d", tiles)
	}
	rows, cols := m.modelGrid()
	grid := placement.Grid{Rows: rows, Cols: cols,
		SiteW: m.Spec.W / float64(cols), SiteH: m.Spec.H / float64(rows)}
	parts = placement.Partition(grid, tiles)
	if tileGates == nil {
		return parts, allocateTileGates(m.Spec.N, parts), nil
	}
	if len(tileGates) != len(parts) {
		return nil, nil, lkerr.New(lkerr.InvalidInput, op,
			"per-tile gate counts: got %d entries, tile partition has %d", len(tileGates), len(parts))
	}
	sum := 0
	for i, c := range tileGates {
		if c < 0 {
			return nil, nil, lkerr.New(lkerr.InvalidInput, op, "per-tile gate count %d is negative (%d)", i, c)
		}
		sum += c
	}
	if sum != m.Spec.N {
		return nil, nil, lkerr.New(lkerr.InvalidInput, op,
			"per-tile gate counts sum to %d, spec has %d gates", sum, m.Spec.N)
	}
	return parts, tileGates, nil
}

// TileStatsCtx partitions the RG array into a tiles×tiles arrangement and
// returns each tile's standalone linear-method moments. tileGates, when
// non-nil, gives the gates per tile in row-major tile order (they must sum
// to the spec's N); nil allocates N over the tiles by site count. Each
// distinct tile shape's off-diagonal mass is the Eq. 17 lag sum of
// EstimateLinearCtx on the tile's sub-grid, computed once per shape — at
// most four under the largest-remainder partition — and only the occupancy
// scaling differs per tile.
func (m *Model) TileStatsCtx(ctx context.Context, tiles int, tileGates []int) ([]TileStat, error) {
	parts, counts, err := m.tileGrid(tiles, tileGates)
	if err != nil {
		return nil, err
	}
	defer telemetry.StartSpan(ctx, "estimate.tiles")()
	telemetry.SpanAttrInt(ctx, "tiles", int64(len(parts)))
	rows, cols := m.modelGrid()
	dw := m.Spec.W / float64(cols)
	dh := m.Spec.H / float64(rows)
	// Recover the tile-arrangement width from the partition itself: tiles in
	// the first tile row share Row0.
	across := 0
	for _, t := range parts {
		if t.Row0 != parts[0].Row0 {
			break
		}
		across++
	}

	rep := telemetry.StartProgress(ctx, "estimate.tiles", int64(len(parts)))
	offs := make(map[[2]int]float64)
	out := make([]TileStat, len(parts))
	for idx, t := range parts {
		start := time.Now()
		shape := [2]int{t.Rows(), t.Cols()}
		off, ok := offs[shape]
		if !ok {
			off, err = m.lagSum(ctx, "core.TileStats", shape[0], shape[1], dw, dh, nil)
			if err != nil {
				rep.Done(int64(idx))
				return nil, err
			}
			offs[shape] = off
		}
		nt, st := counts[idx], t.Sites()
		if st != nt {
			occ := 0.0
			if nt > 1 && st > 1 {
				occ = float64(nt) * float64(nt-1) / (float64(st) * float64(st-1))
			}
			off *= occ
		}
		out[idx] = TileStat{
			Index: idx,
			Row:   idx / across,
			Col:   idx % across,
			Gates: nt,
			Mean:  float64(nt) * m.mu,
			Std:   math.Sqrt(float64(nt)*m.variance + off),
		}
		if telemetry.MetricsOn() {
			telemetry.ObserveSeconds("tile_duration_seconds", time.Since(start).Seconds())
		}
		rep.Tick(int64(idx + 1))
	}
	rep.Done(int64(len(parts)))
	return out, nil
}
