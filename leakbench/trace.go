package main

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"time"

	"leakest"
	"leakest/internal/telemetry"
)

// spanTree indexes a trace snapshot for the per-layer queries: durations by
// stage, attributes inherited from ancestors, and self time.
type spanTree struct {
	spans    []telemetry.SpanSnapshot // spans[id-1]
	children map[int][]int
}

func newSpanTree(snap telemetry.TraceSnapshot) *spanTree {
	t := &spanTree{spans: snap.Spans, children: map[int][]int{}}
	for _, sp := range snap.Spans {
		t.children[sp.Parent] = append(t.children[sp.Parent], sp.ID)
	}
	return t
}

func (t *spanTree) span(id int) telemetry.SpanSnapshot { return t.spans[id-1] }

// each calls fn for every span of the named stage.
func (t *spanTree) each(stage string, fn func(sp telemetry.SpanSnapshot)) {
	for _, sp := range t.spans {
		if sp.Stage == stage {
			fn(sp)
		}
	}
}

// perCall is the mean duration in seconds of the named stage, 0 when it
// never ran.
func (t *spanTree) perCall(stage string) float64 {
	sum, n := 0.0, 0
	t.each(stage, func(sp telemetry.SpanSnapshot) { sum += sp.DurS; n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// childSum is the total duration of id's direct children of the given stages.
func (t *spanTree) childSum(id int, stages ...string) float64 {
	sum := 0.0
	for _, c := range t.children[id] {
		sp := t.span(c)
		for _, s := range stages {
			if sp.Stage == s {
				sum += sp.DurS
			}
		}
	}
	return sum
}

// attr returns the integer attribute key of id or its nearest ancestor.
func (t *spanTree) attr(id int, key string) (int64, bool) {
	for id != 0 {
		sp := t.span(id)
		for _, a := range sp.Attrs {
			if a.Key != key {
				continue
			}
			switch v := a.Value.(type) {
			case int64:
				return v, true
			case int:
				return int64(v), true
			case float64:
				return int64(v), true
			}
		}
		id = sp.Parent
	}
	return 0, false
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(snap telemetry.TraceSnapshot, id int) float64 {
	var parent telemetry.SpanSnapshot
	var iv [][2]float64
	for _, sp := range snap.Spans {
		if sp.ID == id {
			parent = sp
		} else if sp.Parent == id {
			iv = append(iv, [2]float64{sp.StartS, sp.StartS + sp.DurS})
		}
	}
	lo, hi := parent.StartS, parent.StartS+parent.DurS
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := 0.0, lo
	for _, in := range iv {
		a, b := max(in[0], end), min(in[1], hi)
		if b > a {
			covered += b - a
			end = b
		}
	}
	return parent.DurS - covered
}

// attachSnapshot copies a trace recorded elsewhere (a served response's
// trace block) under the current span of ctx, keeping absolute times.
func attachSnapshot(ctx context.Context, snap *telemetry.TraceSnapshot) {
	tr, parent := telemetry.SpanContext(ctx)
	if tr == nil || snap == nil {
		return
	}
	ids := map[int]int{}
	for _, sp := range snap.Spans {
		p := parent
		if sp.Parent != 0 {
			p = ids[sp.Parent]
		}
		start := snap.Start.Add(time.Duration(sp.StartS * float64(time.Second)))
		ids[sp.ID] = tr.AddSpanAt(p, sp.Stage, start, time.Duration(sp.DurS*float64(time.Second)), sp.Attrs...)
	}
}

// writeTrace writes the run's spans as a Chrome trace and returns the path.
func writeTrace(dir, name string, tr *telemetry.Trace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := leakest.WriteChromeTrace(f, tr.Snapshot()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerFromTrace fills the per-layer metrics every workload derives from
// the spans the program emits under the benchmark's own op spans.
func layerFromTrace(m map[string]float64, t *spanTree) {
	m["core.model_s"] = t.perCall("core.model")
	m["core.linear_s"] = t.perCall("estimate.linear")
	m["core.truth_s"] = t.perCall("core.truth")
	m["core.truth_precompute_s"] = t.perCall("truth.class_precompute")
	m["core.tiled_combine_s"] = t.perCall("estimate.linear-tiled")

	pairs, pairSec := 0.0, 0.0
	t.each("core.truth", func(sp telemetry.SpanSnapshot) {
		if n, ok := t.attr(sp.ID, "gates"); ok {
			pairs += float64(n) * float64(n-1) / 2
			pairSec += sp.DurS - t.childSum(sp.ID, "truth.class_precompute")
		}
	})
	if pairSec > 0 {
		m["core.truth_pairs_per_s"] = pairs / pairSec
	}

	runs, setup, trials, trialGates := 0, 0.0, 0.0, 0.0
	t.each("chipmc.run", func(sp telemetry.SpanSnapshot) {
		runs++
		setup += t.childSum(sp.ID, "chipmc.cholesky", "chipmc.fft_setup", "chipmc.tile_setup")
		sec := t.childSum(sp.ID, "chipmc.trials")
		trials += sec
		n, okN := t.attr(sp.ID, "gates")
		k, okK := t.attr(sp.ID, "chipmc.trials")
		if okN && okK && sec > 0 {
			trialGates += float64(n) * float64(k)
		}
	})
	if runs > 0 {
		m["chipmc.setup_s"] = setup / float64(runs)
		m["chipmc.trials_s"] = trials / float64(runs)
	}
	if trials > 0 {
		m["chipmc.trial_gates_per_s"] = trialGates / trials
	}
}
