// Command leakbench is the leakest benchmark: it generates a workload from a
// seed, sets it up, computes reference answers, then drives the public API
// (or, for service-mix, a leakestd handler over loopback) for a fixed time,
// checking every output. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics and write a Chrome trace.
//
// Build and run it through run.sh from the repository root:
//
//	bash leakbench/run.sh --workload mc-placed --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"leakest/internal/telemetry"
)

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// workload is one benchmark input family.
type workload interface {
	// setup builds the inputs and warms every process the ops use. It is
	// timed, and called setupRepeats times; each call replaces the last.
	setup(seed int64) error
	// prepare computes the reference answers (untimed) and returns one
	// round of ops.
	prepare() ([]op, error)
	// clients is the closed-loop client count (1 runs whole rounds).
	clients() int
	// probe measures the workload's layer probes into m (traced run only).
	probe(m map[string]float64, t *spanTree) error
	close()
}

var workloads = map[string]func() workload{
	"truth-placed": func() workload { return &truthPlaced{} },
	"mc-placed":    func() workload { return &mcPlaced{} },
	"service-mix":  func() workload { return &serviceMix{} },
}

// endToEnd and perLayer list every reported metric with its unit; they
// mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"cpu_s_per_op", "s"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"charlib.characterize_s", "s"},
	{"charlib.leakage_evals_per_s", "1/s"},
	{"placement.autoplace_s", "s"},
	{"core.model_s", "s"},
	{"core.linear_s", "s"},
	{"core.truth_s", "s"},
	{"core.truth_pairs_per_s", "1/s"},
	{"core.truth_precompute_s", "s"},
	{"core.tiled_combine_s", "s"},
	{"chipmc.setup_s", "s"},
	{"chipmc.allocs_per_op", "count"},
	{"chipmc.trials_s", "s"},
	{"chipmc.trial_gates_per_s", "1/s"},
	{"chipmc.ref_z_max", "sigma"},
	{"randvar.embed_s", "s"},
	{"randvar.field_draws_per_s", "1/s"},
	{"fft.transform2d_s", "s"},
	{"fft.flops_computed", "flop"},
	{"fft.bytes_computed", "B"},
	{"netlist.scan_gates_per_s", "1/s"},
	{"netlist.scan_allocs", "count"},
	{"netlist.read_bench_s", "s"},
	{"server.roundtrip_ms_p50", "ms"},
	{"server.handler_ms_p50", "ms"},
	{"server.self_ms_p50", "ms"},
	{"server.json_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hit_ratio.library", "ratio"},
	{"server.cache_hit_ratio.netlist", "ratio"},
	{"server.shed_ratio", "ratio"},
	{"server.conformance_mismatches", "count"},
	{"parallel.efficiency", "ratio"},
	{"telemetry.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed-phase length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build/leakbench", "directory for Chrome traces")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	rep, err := run(mk(), *name, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode report: %v", err)
	}
	fmt.Println(string(js))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "leakbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func run(w workload, name string, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	defer w.close()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ops, err := w.prepare()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	logf("%s seed %d: setup %.3fs (median of %v), %d ops per round", name, seed, median(setups), setups, len(ops))

	cfg := phaseConfig{seconds: seconds, workers: 2, clients: w.clients()}
	if cfg.clients > 1 {
		// Concurrent clients overlap their transient buffers (two dense
		// Monte-Carlo matrices at once) at random moments, which the
		// program's own collections mostly miss, so the high-water mark
		// would jump between runs. The service heap is mostly pointer-free
		// request bodies, so a collection every 200 ms is cheap there;
		// single-caller phases keep the program's own collection times.
		cfg.gcEvery = 200 * time.Millisecond
	}
	plain := runPhase(ops, cfg)
	logPhase("untraced", plain)
	phases := []*phaseResult{plain}

	m := map[string]float64{}
	defs := endToEnd
	if !traced {
		m["setup_s"] = median(setups)
		m["ops_per_s"] = plain.opsPerSec()
		m["cpu_s_per_op"] = plain.cpuPerOp()
		m["peak_heap_mb"] = plain.heapPeak / 1e6
		m["ok_ratio"] = 1 - plain.failRatio()
		m["latency_p50_ms"] = 1e3 * quantile(plain.lat, 0.5)
		m["latency_p99_ms"] = 1e3 * quantile(plain.lat, 0.99)
	} else {
		defs = perLayer
		tr := telemetry.NewTrace()
		cfg.trace = tr
		tp := runPhase(ops, cfg)
		logPhase("traced", tp)
		phases = append(phases, tp)
		snap := tr.Snapshot()
		t := newSpanTree(snap)
		layerFromTrace(m, t)
		m["telemetry.overhead_pct"] = 100 * (plain.opsPerSec() - tp.opsPerSec()) / plain.opsPerSec()
		if err := w.probe(m, t); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if w.clients() == 1 && t.perCall("chipmc.run") > 0 {
			// From the untraced phase: spans allocate too.
			m["chipmc.allocs_per_op"] = plain.allocs / float64(plain.attempted)
		}
		if w.clients() == 1 {
			t1, err := timeRound(ops, 1)
			if err != nil {
				return nil, fmt.Errorf("single-worker round: %w", err)
			}
			t2, err := timeRound(ops, 2)
			if err != nil {
				return nil, fmt.Errorf("two-worker round: %w", err)
			}
			m["parallel.efficiency"] = t1 / (2 * t2)
			logf("parallel: round %.3fs at 1 worker, %.3fs at 2", t1, t2)
		}
		path, err := writeTrace(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed), tr)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		logf("chrome trace: %s (%d spans)", path, len(snap.Spans))
	}

	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	good := map[int]outcome{}
	for _, p := range phases {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		for i, o := range p.good {
			good[i] = o
		}
		for _, f := range p.failures {
			logf("FAIL %s", f)
		}
	}
	if traced {
		m["fail_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	tried, err := selfCheck(ops, good)
	if err != nil {
		logf("%v", err)
		rep.Correct = false
	} else {
		logf("self-check: %d perturbed outcomes, all rejected", tried)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		logf("  %-32s %14.6g %s", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

func logPhase(label string, p *phaseResult) {
	logf("%s: %d ops (%d failed) in %.2fs, %d rounds, %.3f ops/s, cpu %.2fs, heap peak +%.1f MB",
		label, p.attempted, p.failed, p.elapsed, len(p.roundWall), p.opsPerSec(), p.cpu, p.heapPeak/1e6)
	names := make([]string, 0, len(p.opLat))
	for k := range p.opLat {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		logf("  %-24s %5d × median %.2f ms, max %.2f ms", k, len(p.opLat[k]),
			1e3*median(p.opLat[k]), 1e3*quantile(p.opLat[k], 1))
	}
}
