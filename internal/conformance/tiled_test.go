package conformance

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestRunTiled is the tiled conformance gate itself: on a healthy tree
// every check — bitwise tiled-vs-monolithic exactness, tile-count and
// worker invariance, and the streaming round trip — must pass.
func TestRunTiled(t *testing.T) {
	rep, err := RunTiled(context.Background(), Config{Short: true, Workers: 2})
	if err != nil {
		t.Fatalf("RunTiled: %v", err)
	}
	if len(rep.Checks) < 20 {
		t.Fatalf("only %d checks ran; the tiled suite should produce more", len(rep.Checks))
	}
	if !rep.OK() {
		var b strings.Builder
		rep.Summarize(&b, false)
		t.Fatalf("tiled suite failed:\n%s", b.String())
	}
	var b strings.Builder
	rep.Summarize(&b, true)
	t.Logf("tiled suite:\n%s", b.String())
}

// TestRunTiledWorkerIndependence asserts the determinism contract: the
// tiled report — every got, want, and margin — is identical at any worker
// count.
func TestRunTiledWorkerIndependence(t *testing.T) {
	r1, err := RunTiled(context.Background(), Config{Short: true, Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	r4, err := RunTiled(context.Background(), Config{Short: true, Workers: 4})
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	r1.Workers, r4.Workers = 0, 0
	if !reflect.DeepEqual(r1, r4) {
		for i := range r1.Checks {
			if i < len(r4.Checks) && !reflect.DeepEqual(r1.Checks[i], r4.Checks[i]) {
				t.Errorf("check %d differs:\n  w1: %+v\n  w4: %+v", i, r1.Checks[i], r4.Checks[i])
			}
		}
		t.Fatal("tiled reports differ across worker counts")
	}
}

// TestTiledSelfCheck proves the tiled gates have teeth: a 1 % perturbation
// of any target moment must trip at least one check.
func TestTiledSelfCheck(t *testing.T) {
	results, err := TiledSelfCheck(context.Background(), Config{Short: true, Workers: 2})
	if err != nil {
		t.Fatalf("TiledSelfCheck: %v", err)
	}
	if len(results) != 2*len(tiledMutationTargets) {
		t.Fatalf("got %d self-check results, want %d", len(results), 2*len(tiledMutationTargets))
	}
	for _, r := range results {
		if !r.Caught {
			t.Errorf("mutation %s/%s slipped through every tiled check", r.Target, r.Moment)
		}
	}
	if !AllCaught(results) {
		t.Error("AllCaught disagrees with the per-result loop")
	}
}

// TestTiledMutationIsScoped: tiled mutation targets must not leak into the
// base suite, and base targets must not trip the tiled suite.
func TestTiledMutationIsScoped(t *testing.T) {
	cfg := Config{Short: true, Workers: 2,
		Mutation: &Mutation{Target: "linear", Moment: "std", Factor: SelfCheckFactor}}
	cfg.lite = true
	rep, err := RunTiled(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunTiled: %v", err)
	}
	if !rep.OK() {
		var b strings.Builder
		rep.Summarize(&b, false)
		t.Fatalf("a 'linear' mutation tripped the tiled suite (it mutates inputs the tiled gates re-derive):\n%s", b.String())
	}
}
