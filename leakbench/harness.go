package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"leakest/internal/telemetry"
)

// outcome is what one op returns for checking: the moments every public
// estimator reports, plus the service-only response fields.
type outcome struct {
	Mean, Std float64
	// Served responses: HTTP status, conformance status, and the Monte
	// Carlo moments when the request asked for them.
	Code          int
	Conformance   string
	MCMean, MCStd float64
	// Tail exceedance estimate of an importance-sampled MC run, where it
	// came from ("is" or "fallback"), and the plain-MC exceedance.
	TailP, TailPSE float64
	TailSource     string
	TailMCP        float64
	// Linear-estimate moments of the op's extracted design.
	LinearMean, LinearStd float64
}

// op is one public-API call (or one HTTP request) and its output check.
type op struct {
	name  string
	gates int
	// do performs the call under ctx with the given estimator worker count.
	do func(ctx context.Context, workers int) (outcome, error)
	// check returns a non-nil error when the outcome is wrong.
	check func(outcome) error
	// mutations each perturb a good outcome so that check must reject it.
	mutations []func(outcome) outcome
}

// phaseConfig selects how a timed phase drives its ops.
type phaseConfig struct {
	seconds float64
	workers int
	// clients is the number of closed-loop callers sharing the op list.
	clients int
	// gcEvery > 0 makes the heap sampler start a collection at that
	// interval (see heapSampler).
	gcEvery time.Duration
	trace   *telemetry.Trace
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	attempted, failed int
	lat               []float64 // seconds per op, in completion order
	opLat             map[string][]float64
	elapsed           float64   // wall seconds
	cpu               float64   // process user+sys seconds
	roundWall         []float64 // wall seconds of each whole round
	roundCPU          []float64 // process CPU seconds of each whole round
	heapPeak          float64   // peak live heap above the post-setup heap, bytes
	allocs            float64   // heap objects allocated during the phase
	good              map[int]outcome
	failures          []string
}

// opsPerSec is the successful-op rate of the median round, which keeps a
// transient stall of the machine in one round out of the figure.
func (p *phaseResult) opsPerSec() float64 {
	perRound := float64(p.attempted) / float64(len(p.roundWall))
	return perRound * (1 - p.failRatio()) / median(p.roundWall)
}

// cpuPerOp is the process CPU time per op of the median round.
func (p *phaseResult) cpuPerOp() float64 {
	return median(p.roundCPU) / (float64(p.attempted) / float64(len(p.roundCPU)))
}

func (p *phaseResult) failRatio() float64 {
	return float64(p.failed) / float64(p.attempted)
}

// runPhase runs ops under cfg and measures them.
func runPhase(ops []op, cfg phaseConfig) *phaseResult {
	res := &phaseResult{good: map[int]outcome{}, opLat: map[string][]float64{}}
	ctx := context.Background()
	if cfg.trace != nil {
		ctx = telemetry.WithTrace(ctx, cfg.trace)
	}
	var mu sync.Mutex
	record := func(i int, d time.Duration, out outcome, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		res.lat = append(res.lat, d.Seconds())
		res.opLat[ops[i].name] = append(res.opLat[ops[i].name], d.Seconds())
		if err == nil {
			err = ops[i].check(out)
		}
		if err != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("%s: %v", ops[i].name, err))
			}
			return
		}
		res.good[i] = out
	}
	call := func(i int) {
		o := ops[i]
		octx, end := telemetry.WithSpan(ctx, "bench."+o.name)
		if o.gates > 0 {
			telemetry.SpanAttrInt(octx, "gates", int64(o.gates))
		}
		start := time.Now()
		out, err := o.do(octx, cfg.workers)
		d := time.Since(start)
		end()
		record(i, d, out, err)
	}

	heap := startHeapSampler(cfg.gcEvery)
	cpu0 := cpuSeconds()
	allocs0 := mallocs()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// Ops are claimed in list order; once the deadline has passed, the
	// phase ends at the next round boundary, so every run measures whole
	// rounds of the same op mix.
	var claimMu sync.Mutex
	next, stopped := 0, false
	type mark struct{ wall, cpu float64 }
	marks := []mark{{0, cpu0}}
	claim := func() (int, bool) {
		claimMu.Lock()
		defer claimMu.Unlock()
		if stopped {
			return 0, false
		}
		if next > 0 && next%len(ops) == 0 {
			if time.Now().After(deadline) {
				stopped = true
				return 0, false
			}
			marks = append(marks, mark{time.Since(start).Seconds(), cpuSeconds()})
		}
		next++
		return (next - 1) % len(ops), true
	}
	var wg sync.WaitGroup
	for c := 0; c < max(cfg.clients, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				call(i)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	res.cpu = cpuSeconds() - cpu0
	marks = append(marks, mark{res.elapsed, cpu0 + res.cpu})
	for k := 1; k < len(marks); k++ {
		res.roundWall = append(res.roundWall, marks[k].wall-marks[k-1].wall)
		res.roundCPU = append(res.roundCPU, marks[k].cpu-marks[k-1].cpu)
	}
	res.allocs = mallocs() - allocs0
	res.heapPeak = heap.stop()
	return res
}

// timeRound runs every op once, untraced, and returns the wall seconds.
func timeRound(ops []op, workers int) (float64, error) {
	start := time.Now()
	for _, o := range ops {
		out, err := o.do(context.Background(), workers)
		if err == nil {
			err = o.check(out)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", o.name, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// selfCheck feeds every op's last good outcome, perturbed, back to its
// checker; each must be rejected. It returns the number of perturbations
// tried and an error naming the first one the checker let through.
func selfCheck(ops []op, good map[int]outcome) (int, error) {
	tried := 0
	for i, out := range good {
		for k, mutate := range ops[i].mutations {
			tried++
			if err := ops[i].check(mutate(out)); err == nil {
				return tried, fmt.Errorf("self-check: perturbation %d of the %s outcome passed its check", k, ops[i].name)
			}
		}
	}
	if tried == 0 {
		return 0, fmt.Errorf("self-check: no good outcome to perturb")
	}
	return tried, nil
}

// heapSampler tracks the high-water mark of the live heap through
// runtime/metrics, which reads without stopping the world. The live-heap
// figure is the one the collector published at its last cycle, so the
// sampler sees the live heap at every cycle that completes during the
// phase. With gcEvery > 0 it also starts a cycle at that interval, so the
// live heap is observed at fixed times as well as at the program's own,
// allocation-driven cycles.
type heapSampler struct {
	base float64
	peak float64 // owned by the sampler goroutine until stop returns
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(gcEvery time.Duration) *heapSampler {
	runtime.GC()
	runtime.GC()
	h := &heapSampler{base: readMetric("/gc/heap/live:bytes"), done: make(chan struct{})}
	h.peak = h.base
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		read := time.NewTicker(2 * time.Millisecond)
		defer read.Stop()
		var collect <-chan time.Time
		if gcEvery > 0 {
			t := time.NewTicker(gcEvery)
			defer t.Stop()
			collect = t.C
		}
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, float64(sample[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-collect:
				runtime.GC()
			case <-read.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak above the starting live heap.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak - h.base
}

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return math.NaN()
}

// mallocs is the exact count of heap allocations so far. ReadMemStats
// stops the world, so it is read only at phase boundaries and in probes.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// cpuSeconds is the process's user+system CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
