package server

import (
	"net/http"
	"reflect"
	"testing"
)

// TestEstimateTiles: a tiles block attaches the tile breakdown — the served
// moments and method equal the monolithic ones bitwise, and per_tile
// returns the breakdown.
func TestEstimateTiles(t *testing.T) {
	s := coreServer(t, Config{})
	mono := decodeResp(t, do(t, s, "POST", "/v1/estimate", histRequest(500)))

	body := histRequest(500)
	body["tiles"] = map[string]any{"t": 3, "per_tile": true}
	rec := do(t, s, "POST", "/v1/estimate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp(t, rec)
	r := resp.Result
	if r.Method != mono.Result.Method {
		t.Errorf("method %q, want %q", r.Method, mono.Result.Method)
	}
	if r.Mean != mono.Result.Mean || r.Std != mono.Result.Std {
		t.Errorf("tiled moments (%v, %v) != monolithic (%v, %v)",
			r.Mean, r.Std, mono.Result.Mean, mono.Result.Std)
	}
	if r.Tiles != 9 || len(r.TileStats) != 9 {
		t.Errorf("tiles=%d, %d tile stats, want 9 each", r.Tiles, len(r.TileStats))
	}
	gates := 0
	for _, ts := range r.TileStats {
		gates += ts.Gates
	}
	if gates != 500 {
		t.Errorf("tile stats cover %d gates, want 500", gates)
	}
	if resp.Conformance == nil || resp.Conformance.Status != "ok" {
		t.Errorf("conformance %+v, want ok (σ check must run on the tiled linear)", resp.Conformance)
	}

	// Naive (like polar) accepts the breakdown and still answers itself.
	naive := histRequest(500)
	naive["method"] = "naive"
	naive["tiles"] = map[string]any{"t": 2}
	rec = do(t, s, "POST", "/v1/estimate", naive)
	if rec.Code != http.StatusOK {
		t.Fatalf("naive with tiles: status %d: %s", rec.Code, rec.Body.String())
	}
	if r := decodeResp(t, rec).Result; r.Method != "naive-independent" || r.Tiles != 4 {
		t.Errorf("naive with tiles: method %q, tiles %d", r.Method, r.Tiles)
	}

	// Without per_tile the breakdown stays off the wire but the count shows.
	body["tiles"] = map[string]any{"t": 3}
	resp = decodeResp(t, do(t, s, "POST", "/v1/estimate", body))
	if resp.Result.Tiles != 9 || resp.Result.TileStats != nil {
		t.Errorf("tiles=%d tile_stats=%v, want 9 and nil", resp.Result.Tiles, resp.Result.TileStats)
	}
}

// TestEstimateTilesMonteCarlo: tiles never change the Monte-Carlo stage —
// the MC body is identical with and without a tiles block.
func TestEstimateTilesMonteCarlo(t *testing.T) {
	s := coreServer(t, Config{})
	var bodies [2]*MCBody
	for i, tiles := range []map[string]any{nil, {"t": 2}} {
		req := map[string]any{"bench": c17, "mc_samples": 50}
		if tiles != nil {
			req["tiles"] = tiles
		}
		rec := do(t, s, "POST", "/v1/estimate", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		bodies[i] = decodeResp(t, rec).MonteCarlo
		if bodies[i] == nil || bodies[i].Samples != 50 || !(bodies[i].Mean > 0) {
			t.Fatalf("monte carlo %+v", bodies[i])
		}
	}
	if !reflect.DeepEqual(bodies[0], bodies[1]) {
		t.Errorf("tiles changed the MC body: %+v vs %+v", bodies[1], bodies[0])
	}
}

// TestEstimateTilesRejected: the tiles validation refusals. Polar and naive
// accept a tile breakdown like every other method.
func TestEstimateTilesRejected(t *testing.T) {
	s := coreServer(t, Config{})
	cases := []struct {
		name string
		body map[string]any
	}{
		{"negative t", map[string]any{"bench": c17, "tiles": map[string]any{"t": -1}}},
		{"tiles with truth", map[string]any{"bench": c17, "truth": true, "tiles": map[string]any{"t": 2}}},
	}
	for _, tc := range cases {
		rec := do(t, s, "POST", "/v1/estimate", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
	}
}
