package leakest

import (
	"bytes"
	"context"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/lkerr"
)

// tiledTestEstimator builds a shared-library estimator and a small placed
// design for the public tiled-surface tests.
func tiledTestEstimator(t *testing.T, n int) (*Estimator, *Netlist, *Placement) {
	t.Helper()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := RandomCircuit(lib, 11, "tiled-public", n, 6, mustHist(t, map[string]float64{
		"INV_X1": 2, "NAND2_X1": 3, "NOR2_X1": 1}))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := AutoPlace(nl, 12)
	if err != nil {
		t.Fatal(err)
	}
	return est, nl, pl
}

func mustHist(t *testing.T, w map[string]float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEstimatorTiles: the public Tiles knob attaches a tile breakdown to
// every method — linear, auto, integral, polar and naive alike — and never
// changes the moments or the method that answered.
func TestEstimatorTiles(t *testing.T) {
	base, nl, pl := tiledTestEstimator(t, 120)
	design, err := base.ExtractDesign(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A correlation range inside the die, so the polar integral applies.
	proc := *base.Process()
	proc.WIDCorr = TruncatedExpCorr{Lambda: 2, R: 8}
	est, err := NewEstimator(base.Library(), &proc)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Linear, Auto, Integral2D, Polar, Naive} {
		est.Tiles = 0
		mono, err := est.Estimate(design, method)
		if err != nil {
			t.Fatal(err)
		}
		est.Tiles = 3
		tiled, err := est.Estimate(design, method)
		if err != nil {
			t.Fatal(err)
		}
		if tiled.Mean != mono.Mean || tiled.Std != mono.Std || tiled.Method != mono.Method {
			t.Fatalf("%s: tiled %s (%v, %v) != monolithic %s (%v, %v)", method,
				tiled.Method, tiled.Mean, tiled.Std, mono.Method, mono.Mean, mono.Std)
		}
		if len(tiled.TileStats) != 9 || mono.TileStats != nil {
			t.Fatalf("%s: %d tile stats tiled, %d monolithic; want 9 and 0",
				method, len(tiled.TileStats), len(mono.TileStats))
		}
	}
	est.Tiles = -3
	if _, err := est.Estimate(design, Linear); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("Tiles=-3: got %v, want InvalidInput", err)
	}
	if _, err := est.EstimateBudgeted(context.Background(), design, EstimateBudget{}); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("budgeted Tiles=-3: got %v, want InvalidInput", err)
	}
}

// TestEstimateStream: the one-pass streaming estimator reproduces the
// in-memory linear result bitwise, because the
// stream header carries the same (histogram, N, W, H) the extractor derives.
func TestEstimateStream(t *testing.T) {
	est, nl, pl := tiledTestEstimator(t, 90)
	const tiles = 3
	var buf bytes.Buffer
	if err := WriteStream(&buf, nl, pl, tiles); err != nil {
		t.Fatal(err)
	}
	streamed, err := est.EstimateStream(context.Background(), bytes.NewReader(buf.Bytes()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := est.EstimateNetlist(nl, pl, 0.5, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Mean != mono.Mean || streamed.Std != mono.Std {
		t.Fatalf("streamed (%v, %v) != in-memory linear (%v, %v)",
			streamed.Mean, streamed.Std, mono.Mean, mono.Std)
	}
	if streamed.Method != "linear" {
		t.Fatalf("method %q", streamed.Method)
	}
	gates := 0
	for _, ts := range streamed.TileStats {
		gates += ts.Gates
	}
	if gates != len(nl.Gates) {
		t.Fatalf("tile stats cover %d gates, want %d", gates, len(nl.Gates))
	}
	// Malformed streams surface as typed InvalidInput.
	if _, err := est.EstimateStream(context.Background(), bytes.NewReader(buf.Bytes()[:buf.Len()/2]), 0.5); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("truncated stream: got %v, want InvalidInput", err)
	}
}

// TestMonteCarloTiles: the Tiles knob reaches the Monte-Carlo path and its
// validation (polar-style refusals are chipmc's: dense sampler + tiling).
func TestMonteCarloTiles(t *testing.T) {
	est, nl, pl := tiledTestEstimator(t, 64)
	est.Tiles = 2
	res, err := est.MonteCarlo(nl, pl, 0.5, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 24 || res.Std <= 0 {
		t.Fatalf("tiled MC result %+v", res)
	}
	est.Sampler = SamplerDense
	if _, err := est.MonteCarlo(nl, pl, 0.5, 24, 7); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("tiled+dense: got %v, want InvalidInput", err)
	}
}

// TestEstimatorAutoTilesKeepsMethod: tiling attaches per-tile stats to the
// estimator Auto picks; it never swaps the estimator. At 5 000 gates Auto
// answers with a constant-time integral, tiled or not.
func TestEstimatorAutoTilesKeepsMethod(t *testing.T) {
	est, _, _ := tiledTestEstimator(t, 16)
	design := Design{
		Hist: mustHist(t, map[string]float64{"INV_X1": 2, "NAND2_X1": 3, "NOR2_X1": 1}),
		N:    5000, W: 700, H: 500, SignalProb: 0.5,
	}
	mono, err := est.Estimate(design, Auto)
	if err != nil {
		t.Fatal(err)
	}
	est.Tiles = 3
	tiled, err := est.Estimate(design, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Method != mono.Method || tiled.Mean != mono.Mean || tiled.Std != mono.Std {
		t.Fatalf("Tiles=3 gave %s (%v, %v), Tiles=0 gave %s (%v, %v)",
			tiled.Method, tiled.Mean, tiled.Std, mono.Method, mono.Mean, mono.Std)
	}
	if len(tiled.TileStats) != 9 {
		t.Fatalf("%d tile stats, want 9", len(tiled.TileStats))
	}
}
