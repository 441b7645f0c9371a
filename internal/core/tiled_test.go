package core

import (
	"context"
	"math"
	"testing"

	"leakest/internal/lkerr"
	"leakest/internal/placement"
)

// tileLagCounts regroups the ordered site-pair population of one dimension
// by lag, assembling it from the tile decomposition: for every ordered pair
// of tile intervals [s₁,e₁)×[s₂,e₂) and every lag i, the pairs (c, c+i)
// with c in the first interval and c+i in the second number
// max(0, min(e₁, e₂−i) − max(s₁, s₂−i)). Summed over all interval pairs
// (and doubled for i > 0 to cover the −i direction) this reproduces the
// monolithic lag population exactly: lc[0] = dim, lc[i] = 2·(dim − i). It
// is the §16 identity that makes a per-tile combination of Eq. 17 bitwise
// the monolithic sum, and why tiling is diagnostics only.
func tileLagCounts(edges []int, dim int) []int64 {
	t := len(edges) - 1
	lc := make([]int64, dim)
	for a := 0; a < t; a++ {
		for b := 0; b < t; b++ {
			s1, e1 := edges[a], edges[a+1]
			s2, e2 := edges[b], edges[b+1]
			lo := max(0, s2-(e1-1))
			hi := min(dim-1, e2-1-s1)
			for i := lo; i <= hi; i++ {
				ov := min(e1, e2-i) - max(s1, s2-i)
				if ov <= 0 {
					continue
				}
				if i == 0 {
					lc[0] += int64(ov)
				} else {
					lc[i] += 2 * int64(ov)
				}
			}
		}
	}
	return lc
}

// TestTileLagCountsClosedForm checks the decomposition identity the tiled
// pipeline rests on: assembling the per-lag ordered-pair population from
// the tile intervals reproduces the closed forms lc[0] = dim and
// lc[i] = 2·(dim − i) exactly, for every tile count.
func TestTileLagCountsClosedForm(t *testing.T) {
	for _, dim := range []int{1, 2, 5, 17, 64, 100} {
		for _, tiles := range []int{1, 2, 3, 5, 8, 100} {
			edges := placement.TileEdges(dim, tiles)
			lc := tileLagCounts(edges, dim)
			if lc[0] != int64(dim) {
				t.Fatalf("dim=%d t=%d: lc[0] = %d, want %d", dim, tiles, lc[0], dim)
			}
			for i := 1; i < dim; i++ {
				if lc[i] != 2*int64(dim-i) {
					t.Fatalf("dim=%d t=%d: lc[%d] = %d, want %d", dim, tiles, i, lc[i], 2*(dim-i))
				}
			}
		}
	}
}

// TestTiledLinearBitwiseEqualsMonolithic is the §16 exactness contract: at
// every tile count the tile-interval lag populations, multiplied across the
// two axes, equal Eq. 17's count·(cols−i)(rows−j) integer-for-integer, so a
// tiled lag loop would reproduce EstimateLinear's bits; and attaching tile
// stats at any tile and worker count leaves the linear result untouched, on
// square, occupancy-scaled, and degenerate specs.
func TestTiledLinearBitwiseEqualsMonolithic(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	specs := []DesignSpec{
		squareSpec(t, 576),
		{Hist: testHist(t), N: 100, W: 40, H: 12, SignalProb: 0.5}, // occupancy-scaled
		{Hist: testHist(t), N: 1, W: 2, H: 2, SignalProb: 0.5},     // one gate
		{Hist: testHist(t), N: 257, W: 300, H: 9, SignalProb: 0.3}, // skinny, prime N
	}
	for _, spec := range specs {
		m, err := NewModel(lib, proc, spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := m.modelGrid()
		for _, tiles := range []int{1, 2, 3, 5} {
			or := tileLagCounts(placement.TileEdges(rows, tiles), rows)
			oc := tileLagCounts(placement.TileEdges(cols, tiles), cols)
			for i := 0; i < cols; i++ {
				for j := 0; j < rows; j++ {
					count := int64(4)
					if i == 0 || j == 0 {
						count = 2
					}
					if i == 0 && j == 0 {
						count = 1
					}
					if got, mono := oc[i]*or[j], count*int64((cols-i)*(rows-j)); got != mono {
						t.Fatalf("spec N=%d tiles=%d lag (%d,%d): tiled pairs %d, Eq. 17 %d",
							spec.N, tiles, i, j, got, mono)
					}
				}
			}
			for _, workers := range []int{1, 4} {
				m.Workers = workers
				if _, err := m.TileStatsCtx(context.Background(), tiles, nil); err != nil {
					t.Fatal(err)
				}
				got, err := m.EstimateLinear()
				if err != nil {
					t.Fatal(err)
				}
				if got.Mean != want.Mean || got.Std != want.Std || got.Note != want.Note {
					t.Fatalf("spec N=%d tiles=%d workers=%d: linear moved to (%.17g, %.17g)",
						spec.N, tiles, workers, got.Mean, got.Std)
				}
			}
		}
	}
}

// TestTiledTileStats checks the per-tile records: gate counts sum to N,
// tiles appear in row-major order with consistent coordinates, per-tile
// means are n_t·µ, and per-tile stds are positive and bounded by the
// perfectly-correlated limit.
func TestTiledTileStats(t *testing.T) {
	m := newTestModel(t, 576, Analytic)
	res, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	if res.TileStats, err = m.TileStatsCtx(context.Background(), 3, nil); err != nil {
		t.Fatal(err)
	}
	if len(res.TileStats) != 9 {
		t.Fatalf("got %d tiles, want 9", len(res.TileStats))
	}
	mu := m.MeanPerGate()
	totalGates := 0
	var sumMean float64
	for i, ts := range res.TileStats {
		if ts.Index != i {
			t.Fatalf("tile %d has Index %d", i, ts.Index)
		}
		if ts.Row != i/3 || ts.Col != i%3 {
			t.Fatalf("tile %d at (%d,%d), want (%d,%d)", i, ts.Row, ts.Col, i/3, i%3)
		}
		if ts.Gates <= 0 {
			t.Fatalf("tile %d has %d gates", i, ts.Gates)
		}
		totalGates += ts.Gates
		if want := float64(ts.Gates) * mu; math.Abs(ts.Mean-want) > 1e-12*want {
			t.Fatalf("tile %d mean %g, want %g", i, ts.Mean, want)
		}
		sumMean += ts.Mean
		if ts.Std <= 0 {
			t.Fatalf("tile %d std %g", i, ts.Std)
		}
	}
	if totalGates != 576 {
		t.Fatalf("tile gates sum to %d, want 576", totalGates)
	}
	if math.Abs(sumMean-res.Mean) > 1e-9*res.Mean {
		t.Fatalf("tile means sum to %g, chip mean %g", sumMean, res.Mean)
	}
	// Per-tile variances cannot exceed the perfectly-correlated bound
	// (n_t·σ_XI)², and their independent sum cannot exceed the chip variance
	// (correlation is non-negative here).
	var indep float64
	for _, ts := range res.TileStats {
		indep += ts.Std * ts.Std
	}
	if indep > res.Std*res.Std*(1+1e-12) {
		t.Fatalf("independent tile sum %g exceeds chip variance %g", indep, res.Std*res.Std)
	}
}

// TestTiledExplicitGateCounts drives the per-tile allocation externally
// (the streaming path does this) and checks validation of bad slices.
func TestTiledExplicitGateCounts(t *testing.T) {
	m := newTestModel(t, 576, Analytic)
	ctx := context.Background()
	// A skewed but valid allocation: the tile stats must reflect the counts.
	counts := []int{500, 50, 25, 1}
	stats, err := m.TileStatsCtx(ctx, 2, counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range stats {
		if ts.Gates != counts[i] {
			t.Fatalf("tile %d gates %d, want %d", i, ts.Gates, counts[i])
		}
	}
	// Wrong length, negative entries, and wrong sum must be refused.
	for _, bad := range [][]int{
		{576},
		{576, 0, 0},
		{-1, 577, 0, 0},
		{100, 100, 100, 100},
	} {
		if _, err := m.TileStatsCtx(ctx, 2, bad); !lkerr.IsCode(err, lkerr.InvalidInput) {
			t.Fatalf("counts %v: got %v, want InvalidInput", bad, err)
		}
	}
	if _, err := m.TileStatsCtx(ctx, 0, nil); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("tiles=0: want InvalidInput")
	}
}

// TestAllocateTileGates checks the largest-remainder allocation:
// deterministic, sums to n, proportional within one gate.
func TestAllocateTileGates(t *testing.T) {
	grid := placement.Grid{Rows: 24, Cols: 24, SiteW: 2, SiteH: 2}
	parts := placement.Partition(grid, 5)
	for _, n := range []int{0, 1, 576, 577, 123} {
		counts := allocateTileGates(n, parts)
		sum := 0
		for i, c := range counts {
			sum += c
			exact := float64(n) * float64(parts[i].Sites()) / float64(grid.Sites())
			if math.Abs(float64(c)-exact) >= 1 {
				t.Fatalf("n=%d tile %d: count %d, exact share %g", n, i, c, exact)
			}
		}
		if sum != n {
			t.Fatalf("n=%d: counts sum to %d", n, sum)
		}
	}
}

// TestTiledCancellation checks the tile lag loop honors context
// cancellation.
func TestTiledCancellation(t *testing.T) {
	m := newTestModel(t, 576, Analytic)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.TileStatsCtx(ctx, 2, nil); !lkerr.IsCode(err, lkerr.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
}
