GO ?= go

.PHONY: build test check vet race race-parallel fuzz bench conformance qmc-conformance tail-conformance tiled-conformance server-smoke tracecheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: static analysis plus the full suite under the race
# detector (the fault-injection registry and shared-library caches are
# concurrency-sensitive).
check: vet race

# conformance is the statistical verification gate: the harness package
# under the race detector, then `leakest verify` at two worker counts (the
# report must be identical — the second run also writes the JSON artifact
# CI uploads). Short mode keeps it CI-sized; run `leakest verify` without
# -short for the full-depth local pass.
conformance:
	$(GO) test -race ./internal/conformance/
	$(GO) run ./cmd/leakest verify -short -workers 1
	$(GO) run ./cmd/leakest verify -short -workers 4 -json CONFORMANCE_leakest.json

# qmc-conformance is the race-enabled gate for the quasi-Monte-Carlo
# sampler, bottom-up: the Sobol/scramble and pair-field unit layers, the
# batched FFT transform, the chipmc qmc path (determinism across worker
# counts and batch sizes, dense-referee agreement, degrade plumbing,
# alloc pins), then the statistical suite — frozen dense/fft referees,
# equal-SE trial ratio, convergence-slope gates, and the degrade
# self-check — first under the race detector, then via `leakest verify
# -qmc` at two worker counts (the reports must be identical; the second
# run writes the JSON artifact CI uploads).
qmc-conformance:
	$(GO) test -race ./internal/randvar/ -run 'Sobol|TopModes|Pair|SetMode|SamplePartial'
	$(GO) test -race ./internal/fft/
	$(GO) test -race ./internal/chipmc/ -run 'TestQMC'
	$(GO) test -race ./internal/conformance/ -run 'QMC'
	$(GO) run ./cmd/leakest verify -qmc -workers 1
	$(GO) run ./cmd/leakest verify -qmc -workers 4 -json QMC_CONFORMANCE_leakest.json

# tail-conformance is the focused race-enabled gate for the distribution-tail
# estimators: the chipmc tail unit tests (IS agreement, fallbacks, weight
# faults, determinism across workers, race hammer), the stats tail
# primitives, and the conformance tail gates including the full-size
# 10⁶-trial brute-force referee (TestTailGatesFull is skipped by -short
# everywhere else, so this target is where it runs under the race detector).
tail-conformance:
	$(GO) test -race ./internal/stats/ -run 'Quantile|Exceedance|Binomial'
	$(GO) test -race ./internal/chipmc/ -run 'TestTail'
	$(GO) test -race . -run 'TestDeterminismTail|TestTailAccumulatorRaceHammer'
	$(GO) test -race ./internal/conformance/ -run 'TestTail'

# tiled-conformance is the race-enabled gate for the §16 tile breakdown,
# bottom-up: the tile-partition and lag-count layers, the per-tile
# statistics, the streaming netlist reader (including its fuzz seed corpus),
# then the statistical suite — tile breakdowns leave the moments bitwise
# unchanged at several tile counts, tile-count and worker invariance, the
# streaming round trip, Monte Carlo unchanged by tiles, and the mutation
# self-check — first under the race detector, then via `leakest verify
# -tiled` at two worker counts (the reports must be identical; the second
# run writes the JSON artifact CI uploads).
tiled-conformance:
	$(GO) test -race ./internal/placement/ -run 'Tile|Partition'
	$(GO) test -race ./internal/core/ -run 'Tiled'
	$(GO) test -race ./internal/netlist/ -run 'Stream|ScanPlaced'
	$(GO) test -race ./internal/conformance/ -run 'Tiled'
	$(GO) test -race . -run 'TestEstimatorTiles|TestEstimatorAutoTilesKeepsMethod|TestEstimateStream|TestMonteCarloTiles'
	$(GO) run ./cmd/leakest verify -tiled -workers 1
	$(GO) run ./cmd/leakest verify -tiled -workers 4 -json TILED_CONFORMANCE_leakest.json

# server-smoke boots leakestd on a loopback port and exercises the HTTP
# API end to end: a small estimate must answer 200 with finite moments,
# concurrent duplicates must collapse onto one library characterization
# (singleflight, read off /metrics), and SIGTERM must drain to exit 0.
server-smoke:
	./scripts/server_smoke.sh

# tracecheck pins the tracing layer's zero-overhead contract: with no trace,
# no registry and no logger attached, every instrumentation hook — and the
# chipmc trial loop they sit on: the dense field sources and the one grid
# pair body on pseudo-random, Sobol and tilted deviates — must be
# allocation-free. The AllocsPerRun tests fail on any
# regression, so this is the cheap CI gate for changes that touch the
# disabled telemetry path.
tracecheck:
	$(GO) test ./internal/telemetry/ -run 'TestDisabledTracingAllocFree|TestSpanNoopWhenAllSinksOff'
	$(GO) test ./internal/chipmc/ -run 'TrialBodyAllocs'
	$(GO) test ./internal/randvar/ -run TestSobolAllocs

# A short fuzz pass over the .bench parser; CI runs the seed corpus via
# `go test`, this target digs further locally.
fuzz:
	$(GO) test -fuzz=FuzzReadBench -fuzztime=30s ./internal/netlist/

# race-parallel is a focused race-detector pass over the deterministic
# worker pool and its four call sites (the full `race` target covers them
# too; this one is the fast CI job for parallel-path changes). The chipmc
# route freeze replays every Monte-Carlo trial route at 1 and 4 workers
# against its recorded totals; the fft twiddle-cache test builds the shared
# transform tables from concurrent transforms of mixed lengths.
race-parallel:
	$(GO) test -race ./internal/parallel/ ./internal/core/ -run 'Parallel|Sharding|ForEach|Ticker|LagCountTruthWorker'
	$(GO) test -race ./internal/fft/ -run 'TestTwiddleCacheConcurrent'
	$(GO) test -race ./internal/chipmc/ -run 'TestRouteStreamsFrozen'
	$(GO) test -race . -run 'TestDeterminism|TestParallel|TestWorkersField'

# bench runs every paper benchmark once, plus the layer benchmarks of the
# Monte-Carlo kernels (the 2-D FFT, the Cholesky factorization and the
# dense field draw) ten times each, since one run of a millisecond kernel
# mostly times a cold cache, and leaves a machine-readable record in
# BENCH_leakest.json (name, ns/op, B/op, allocs/op, gate count,
# GOMAXPROCS, worker count) via cmd/benchjson. Set LEAKEST_WORKERS=N to run
# the single-design benchmarks at a fixed pool size (recorded in the
# report); the results are bitwise identical either way. A failed package
# prints a FAIL line, which benchjson turns back into a non-zero exit. The Fig6 and Table1 paper-accuracy benchmarks and the Fig. 6-size
# exact truth (TruthClassed) always run under a wall-time budget (≈7×,
# ≈120× and ≈5.6× their local times of 0.58 s, 42 ms and 89 ms on a 2-core
# VM, to absorb CI-host noise; the Fig6 and TruthClassed budgets also sit
# below the 4.75 s and 0.63 s of the per-pair truth they replaced) so a
# perf regression in the estimators they sweep fails the target; add more
# gates via BENCHJSON_FLAGS="-budget ChipMCMillion=60s" (see cmd/benchjson).
# BENCH_COUNT=N runs every benchmark N times and records (and gates) each
# one's median run; the committed BENCH_leakest.json is made with
# BENCH_COUNT=5, since a single run of a whole-path benchmark swings 2–3×
# on a loaded 2-core host.
BENCHJSON_BUDGETS = -budget Fig6=4s -budget Table1=5s -budget TruthClassed=500ms
BENCHJSON_FLAGS ?=
BENCH_COUNT ?= 1
bench:
	{ $(GO) test -bench=. -benchtime=1x -count=$(BENCH_COUNT) -benchmem -run=^$$ . ; \
	  $(GO) test -bench=. -benchtime=10x -count=$(BENCH_COUNT) -benchmem -run=^$$ ./internal/fft ./internal/linalg ./internal/randvar ; } | $(GO) run ./cmd/benchjson -o BENCH_leakest.json $(BENCHJSON_BUDGETS) $(BENCHJSON_FLAGS)
