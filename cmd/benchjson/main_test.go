package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseLine(t *testing.T) {
	line := "BenchmarkEstimateLinear-8   \t       1\t  12345678 ns/op\t  4096 B/op\t     12 allocs/op\t  0.44 avg-mean-err-%"
	b, ok := parseLine(line)
	if !ok {
		t.Fatalf("line not recognized")
	}
	if b.Name != "EstimateLinear" || b.Iterations != 1 {
		t.Errorf("name/iters = %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 12345678 || b.BytesPerOp != 4096 || b.AllocsOp != 12 {
		t.Errorf("parsed values = %+v", b)
	}
	if b.Gates != 1000000 {
		t.Errorf("gates = %d, want the EstimateLinear design size", b.Gates)
	}
	if b.Procs != 8 {
		t.Errorf("procs = %d, want 8 from the -8 suffix", b.Procs)
	}
	if b.Metrics["avg-mean-err-%"] != 0.44 {
		t.Errorf("custom metric missing: %+v", b.Metrics)
	}
}

func TestParseLineHealthMetrics(t *testing.T) {
	line := "BenchmarkChipMCFFT-4 \t 1\t 305737340 ns/op\t 0.5 cache-hits/op\t 2 degradations/op\t 1.000 sampler:fft"
	b, ok := parseLine(line)
	if !ok {
		t.Fatalf("line not recognized")
	}
	if b.Sampler != "fft" {
		t.Errorf("sampler = %q, want fft", b.Sampler)
	}
	if b.CacheHits != 0.5 || b.Degradations != 2 {
		t.Errorf("cache-hits/degradations = %v/%v, want 0.5/2", b.CacheHits, b.Degradations)
	}
	if len(b.Metrics) != 0 {
		t.Errorf("promoted units must not also land in Metrics: %+v", b.Metrics)
	}
}

func TestParseLineQMCSamplerAndBatch(t *testing.T) {
	line := "BenchmarkChipMCQMC-4 \t 1\t 205737340 ns/op\t 1.000 sampler:qmc\t 16 batch"
	b, ok := parseLine(line)
	if !ok {
		t.Fatalf("line not recognized")
	}
	if b.Sampler != "qmc" {
		t.Errorf("sampler = %q, want qmc", b.Sampler)
	}
	if b.Batch != 16 {
		t.Errorf("batch = %d, want 16", b.Batch)
	}
	if b.Gates != 10000 {
		t.Errorf("gates = %d, want the ChipMCQMC design size", b.Gates)
	}
	if len(b.Metrics) != 0 {
		t.Errorf("promoted units must not also land in Metrics: %+v", b.Metrics)
	}
}

func TestParseLineTilesAndPeakBytes(t *testing.T) {
	line := "BenchmarkChipMCMillion-8 \t 1\t 905737340 ns/op\t 1.234e+08 peak-bytes"
	b, ok := parseLine(line)
	if !ok {
		t.Fatalf("line not recognized")
	}
	if b.PeakBytes != 1.234e8 {
		t.Errorf("peak-bytes = %v, want 1.234e8", b.PeakBytes)
	}
	if b.Gates != 1000000 {
		t.Errorf("gates = %d, want the ChipMCMillion design size", b.Gates)
	}
	if len(b.Metrics) != 0 {
		t.Errorf("promoted units must not also land in Metrics: %+v", b.Metrics)
	}

	b, ok = parseLine("BenchmarkEstimateStream-8 \t 1\t 2905737340 ns/op\t 256 tiles\t 5.6e+07 peak-bytes")
	if !ok {
		t.Fatalf("stream line not recognized")
	}
	if b.Gates != 10000000 || b.Tiles != 256 || b.PeakBytes != 5.6e7 {
		t.Errorf("stream bench parsed as %+v", b)
	}
}

func TestParseLineWorkersSubBenchmark(t *testing.T) {
	b, ok := parseLine("BenchmarkTrueLeakageWorkers/workers=4-8 \t 3\t 41000000 ns/op")
	if !ok {
		t.Fatalf("line not recognized")
	}
	if b.Name != "TrueLeakageWorkers/workers=4" {
		t.Errorf("name = %q; the sub-benchmark path must survive", b.Name)
	}
	if b.Workers != 4 || b.Procs != 8 {
		t.Errorf("workers/procs = %d/%d, want 4/8", b.Workers, b.Procs)
	}
	if b.Gates != 3512 {
		t.Errorf("gates = %d, want the c7552 size keyed off the base name", b.Gates)
	}
}

func TestParseLineKeepsNonNumericSuffix(t *testing.T) {
	// A dash that is part of the benchmark name (no GOMAXPROCS suffix,
	// as with -cpu=1 output on some toolchains) must not be stripped.
	b, ok := parseLine("BenchmarkPolar-1d 5 1000 ns/op")
	if !ok || b.Name != "Polar-1d" || b.Procs != 0 {
		t.Errorf("b = %+v, ok = %v", b, ok)
	}
	b, ok = parseLine("BenchmarkTruth-fast 5 1000 ns/op")
	if !ok || b.Name != "Truth-fast" || b.Procs != 0 {
		t.Errorf("non-numeric suffix stripped: %+v, ok = %v", b, ok)
	}
}

func TestParseLineRejectsNonBenchmarks(t *testing.T) {
	for _, line := range []string{
		"", "PASS", "ok  \tleakest\t33s",
		"goos: linux", "# TYPE x counter",
		"BenchmarkBroken-8 notanumber 5 ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseLineWithoutGateCount(t *testing.T) {
	b, ok := parseLine("BenchmarkFig2-4 1 31944639 ns/op")
	if !ok || b.Gates != 0 {
		t.Errorf("b = %+v, ok = %v; want gates omitted", b, ok)
	}
}

func TestBudgetFlagParsing(t *testing.T) {
	b := budgets{}
	if err := b.Set("Fig6=41s"); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("Table1=1500ms"); err != nil {
		t.Fatal(err)
	}
	if b["Fig6"] != 41*time.Second || b["Table1"] != 1500*time.Millisecond {
		t.Errorf("budgets = %v", b)
	}
	for _, bad := range []string{"Fig6", "=41s", "Fig6=", "Fig6=-1s", "Fig6=0s", "Fig6=fast"} {
		if err := b.Set(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if got := b.String(); got != "Fig6=41s,Table1=1.5s" {
		t.Errorf("String() = %q", got)
	}
}

func TestOverBudget(t *testing.T) {
	bs := []Bench{
		{Name: "Fig6", NsPerOp: 40e9},
		{Name: "Table1", NsPerOp: 3e9},
		{Name: "TrueLeakageWorkers/workers=4", NsPerOp: 9e9},
	}
	bud := budgets{
		"Fig6":               41 * time.Second, // under
		"Table1":             2 * time.Second,  // over
		"TrueLeakageWorkers": 5 * time.Second,  // sub-benchmark over, keyed by base name
		"ChipMCFFT":          10 * time.Second, // never ran
	}
	viols := overBudget(bs, bud)
	if len(viols) != 3 {
		t.Fatalf("violations = %v, want 3", viols)
	}
	joined := strings.Join(viols, "\n")
	for _, want := range []string{"BenchmarkTable1 took", "BenchmarkTrueLeakageWorkers/workers=4 took", "BenchmarkChipMCFFT has a 10s budget but did not run"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "BenchmarkFig6") {
		t.Errorf("under-budget benchmark flagged:\n%s", joined)
	}
	if viols := overBudget(bs, budgets{}); viols != nil {
		t.Errorf("no budgets must mean no violations, got %v", viols)
	}
}

func TestFailedLine(t *testing.T) {
	for line, want := range map[string]bool{
		"FAIL":                              true,
		"FAIL\tleakest/internal/fft\t0.05s": true,
		"--- FAIL: TestX (0.00s)":           false,
		"ok  \tleakest/internal/fft\t0.05s": false,
		"BenchmarkFAIL-2 1 5 ns/op":         false,
		"PASS":                              false,
	} {
		if got := failedLine(line); got != want {
			t.Errorf("failedLine(%q) = %v, want %v", line, got, want)
		}
	}
}

func TestMedianRuns(t *testing.T) {
	bs := []Bench{
		{Name: "Fig6", Procs: 2, NsPerOp: 30, Iterations: 1},
		{Name: "Table1", Procs: 2, NsPerOp: 7},
		{Name: "Fig6", Procs: 2, NsPerOp: 10, Iterations: 2},
		{Name: "Fig6", Procs: 4, NsPerOp: 50},
		{Name: "Fig6", Procs: 2, NsPerOp: 20, Iterations: 3},
		{Name: "Table1", Procs: 2, NsPerOp: 5},
	}
	got := medianRuns(bs)
	want := []Bench{
		{Name: "Fig6", Procs: 2, NsPerOp: 20, Iterations: 3, Runs: 3}, // the median run, whole
		{Name: "Table1", Procs: 2, NsPerOp: 5, Runs: 2},               // lower median of two
		{Name: "Fig6", Procs: 4, NsPerOp: 50, Runs: 1},                // other GOMAXPROCS, own entry
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Procs != w.Procs || g.NsPerOp != w.NsPerOp || g.Iterations != w.Iterations || g.Runs != w.Runs {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
}
