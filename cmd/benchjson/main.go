// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a machine-readable benchmark report. It echoes every input line to
// stdout unchanged (so `make bench` still shows the normal benchmark text)
// and writes a JSON array of parsed results — name, iterations, ns/op,
// B/op, allocs/op, the design's gate count where one is defined, and any
// custom b.ReportMetric values — to the -o path.
//
//	go test -bench=. -benchtime=1x -benchmem -run='^$' . | benchjson -o BENCH_leakest.json
//
// Repeatable -budget NAME=DURATION flags turn the report into a regression
// gate: the run exits non-zero when the named benchmark's ns/op exceeds the
// budget, or when a budgeted benchmark is missing from the input (a
// silently skipped benchmark must not pass its gate).
//
//	... | benchjson -o BENCH_leakest.json -budget Fig6=41s -budget Table1=2s
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gateCounts maps benchmarks that exercise a single design to its gate
// count, so ns/op can be read as time-per-design-size. Experiment-table
// benchmarks sweep many sizes and are reported without one.
var gateCounts = map[string]int{
	"EstimateLinear":       1000000,
	"EstimateConstantTime": 1000000,
	"TrueLeakage":          383,  // c880
	"TrueLeakageWorkers":   3512, // c7552
	"Floorplan":            130000,
	"ChipMCFFT":            10000,
	"ChipMCQMC":            10000,
	"TruthClassed":         11236, // 106², Fig. 6's largest size
	"TruthMillion":         1000000,
	"ChipMCTiled":          1000000,
	"EstimateStream":       10000000,
}

// budgets collects the repeatable -budget NAME=DURATION flags.
type budgets map[string]time.Duration

func (b budgets) String() string {
	parts := make([]string, 0, len(b))
	for name, d := range b {
		parts = append(parts, name+"="+d.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (b budgets) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want NAME=DURATION, got %q", s)
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("budget %q must be positive", s)
	}
	b[name] = d
	return nil
}

// overBudget checks every parsed benchmark whose base name carries a budget
// and returns one violation line per benchmark over its budget — plus one
// per budgeted name that never appeared in the input.
func overBudget(bs []Bench, bud budgets) []string {
	var out []string
	seen := make(map[string]bool, len(bud))
	for _, b := range bs {
		base := b.Name
		if i := strings.IndexByte(base, '/'); i >= 0 {
			base = base[:i]
		}
		limit, ok := bud[base]
		if !ok {
			continue
		}
		seen[base] = true
		if got := time.Duration(b.NsPerOp); got > limit {
			out = append(out, fmt.Sprintf("Benchmark%s took %s, over its %s budget", b.Name, got.Round(time.Millisecond), limit))
		}
	}
	for name := range bud {
		if !seen[name] {
			out = append(out, fmt.Sprintf("Benchmark%s has a %s budget but did not run", name, bud[name]))
		}
	}
	sort.Strings(out)
	return out
}

// Bench is one parsed benchmark result line.
type Bench struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	Gates      int     `json:"gates,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran under (the -P name
	// suffix); Workers is the pool size of a "/workers=N" sub-benchmark.
	// Both are kept so entries at different parallelism settings stay
	// distinguishable in the report.
	Procs   int                `json:"procs,omitempty"`
	Workers int                `json:"workers,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Numerical-health facts reported by the benchmarks themselves (see
	// reportHealthMetrics in bench_test.go): the Monte-Carlo sampler the
	// run actually used, and per-op degradation / artifact-cache-hit
	// counts read from the telemetry registry.
	Sampler      string  `json:"sampler,omitempty"`
	Degradations float64 `json:"degradations_per_op,omitempty"`
	CacheHits    float64 `json:"cache_hits_per_op,omitempty"`
	// Batch is the qmc sampler's trial-fields-per-FFT-pass batch size
	// (the "batch" unit BenchmarkChipMCQMC reports).
	Batch int `json:"batch,omitempty"`
	// Tiles is the tile count a tiled-pipeline benchmark ran with, and
	// PeakBytes its high-water heap mark (the "tiles" and "peak-bytes"
	// units of BenchmarkChipMCTiled and BenchmarkEstimateStream).
	Tiles     int     `json:"tiles,omitempty"`
	PeakBytes float64 `json:"peak_bytes,omitempty"`
}

// Report is the top-level document written to -o.
type Report struct {
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Benchmarks []Bench `json:"benchmarks"`
}

// parseLine parses one "BenchmarkName-P  N  V unit  V unit ..." line;
// ok is false for non-benchmark lines.
func parseLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	// Strip the -P suffix only when it is numeric: benchmark names may
	// themselves contain dashes, which must survive.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	// Gate counts key off the base name so "/workers=N" (and other
	// sub-benchmark) variants of a single-design benchmark keep theirs.
	base := name
	if i := strings.IndexByte(base, '/'); i >= 0 {
		base = base[:i]
	}
	b := Bench{Name: name, Iterations: iters, Gates: gateCounts[base], Procs: procs}
	for _, part := range strings.Split(name, "/")[1:] {
		if w, ok := strings.CutPrefix(part, "workers="); ok {
			if n, err := strconv.Atoi(w); err == nil {
				b.Workers = n
			}
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsOp = v
		case "degradations/op":
			b.Degradations = v
		case "cache-hits/op":
			b.CacheHits = v
		case "batch":
			b.Batch = int(v)
		case "tiles":
			b.Tiles = int(v)
		case "peak-bytes":
			b.PeakBytes = v
		default:
			if s, ok := strings.CutPrefix(unit, "sampler:"); ok {
				b.Sampler = s
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

func main() {
	out := flag.String("o", "BENCH_leakest.json", "output path for the JSON report")
	bud := budgets{}
	flag.Var(bud, "budget", "fail when a benchmark exceeds its wall-time budget, e.g. Fig6=41s (repeatable)")
	flag.Parse()

	rep := Report{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if b, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	if viols := overBudget(rep.Benchmarks, bud); len(viols) > 0 {
		for _, v := range viols {
			fmt.Fprintf(os.Stderr, "benchjson: %s\n", v)
		}
		os.Exit(1)
	}
}
