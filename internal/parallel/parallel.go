// Package parallel is the deterministic worker pool behind the pipeline's
// four long loops: chip-level Monte-Carlo trials (chipmc), per-(cell, state)
// characterization (charlib), the per-type lag-count rows of the exact
// truth (core.TrueStats), and the linear estimator's distance-vector
// columns (core.EstimateLinear).
//
// The pool trades no reproducibility for speed. Its determinism contract:
//
//   - Tasks are independent: fn(i) may read shared immutable state and must
//     write only to slots owned by index i (totals[i], rowSums[i], …).
//   - Any randomness inside a task comes from a PRNG stream derived from
//     (seed, i), never from a stream shared across tasks.
//   - Callers merge per-index partial results in fixed index order on the
//     coordinating goroutine after ForEach returns.
//
// Under that contract the result is bitwise identical at every worker
// count, including the serial Workers = 1 path, because no floating-point
// reduction ever crosses racing goroutines.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leakest/internal/lkerr"
	"leakest/internal/telemetry"
)

// Resolve maps a Workers configuration value to the effective pool size for
// n tasks: zero or negative selects runtime.GOMAXPROCS(0), and the result
// never exceeds n (more than one goroutine per task cannot help).
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(worker, i) for every index i in [0, n) on up to workers
// goroutines (after Resolve). worker ∈ [0, workers) identifies the executing
// slot so tasks can reuse per-worker scratch buffers.
//
// Cancellation and failure semantics match the serial loops the pool
// replaced: ctx is checked before every task (a cancel or deadline stops the
// fan-out within one task's work and returns the typed Canceled /
// DeadlineExceeded error for op), the first failure stops further task
// claims, and ForEach returns only after every worker has exited — no
// goroutine outlives the call. Indices are claimed in increasing order and a
// claimed task always runs to completion, so when several tasks fail the
// error of the lowest failing index is reported. A panic inside a task is
// re-raised on the calling goroutine, preserving the public entry points'
// RecoverInto classification.
//
// workers == 1 runs inline on the calling goroutine — exactly the serial
// loop, with the same per-iteration cancellation checkpoint.
//
// When ctx carries a telemetry trace, each worker goroutine is recorded as
// one "<op>.shard" child span of the context's current span. Workers only
// write their own shard slot; the spans are merged into the trace after the
// join, in worker-index order, so the trace structure is deterministic at
// any worker count (shard spans never enter the flat Stages breakdown —
// Result.Timings stays independent of the pool size). Without a trace the
// path allocates nothing.
func ForEach(ctx context.Context, op string, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers, n)
	tr, parent := telemetry.SpanContext(ctx)
	var shards []shardStat
	if tr != nil {
		shards = make([]shardStat, workers)
	}
	if workers == 1 {
		if shards != nil {
			shards[0].start = time.Now()
		}
		for i := 0; i < n; i++ {
			if err := lkerr.FromContext(ctx, op); err != nil {
				mergeShards(tr, parent, op, shards)
				return err
			}
			if err := fn(0, i); err != nil {
				mergeShards(tr, parent, op, shards)
				return err
			}
			if shards != nil {
				shards[0].tasks++
			}
		}
		mergeShards(tr, parent, op, shards)
		return nil
	}

	var (
		next atomic.Int64
		stop atomic.Bool

		mu       sync.Mutex
		errIdx   = n
		firstErr error
		panIdx   = n
		firstPan any
	)
	fail := func(i int, err error, pan any) {
		mu.Lock()
		if pan != nil {
			if i < panIdx {
				panIdx, firstPan = i, pan
			}
		} else if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	runTask := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				fail(i, nil, r)
			}
		}()
		if err := fn(w, i); err != nil {
			fail(i, err, nil)
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			if shards != nil {
				// Worker w owns slot w exclusively; the coordinating
				// goroutine reads it only after wg.Wait.
				shards[w].start = time.Now()
				defer func() { shards[w].end = time.Now() }()
			}
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := lkerr.FromContext(ctx, op); err != nil {
					fail(i, err, nil)
					return
				}
				runTask(w, i)
				if shards != nil {
					shards[w].tasks++
				}
			}
		}(w)
	}
	wg.Wait()
	mergeShards(tr, parent, op, shards)

	if firstPan != nil && panIdx <= errIdx {
		panic(firstPan)
	}
	return firstErr
}

// shardStat is one worker goroutine's lifetime and task count; each worker
// writes only its own slot, read by the coordinator after the join.
type shardStat struct {
	start time.Time
	end   time.Time
	tasks int
}

// mergeShards folds the per-worker shard stats into the trace as
// "<op>.shard" child spans, in worker-index order — the deterministic merge
// the pool's determinism contract extends to tracing. No-op without a
// trace.
func mergeShards(tr *telemetry.Trace, parent int, op string, shards []shardStat) {
	if tr == nil || shards == nil {
		return
	}
	for w := range shards {
		s := shards[w]
		if s.start.IsZero() {
			continue
		}
		end := s.end
		if end.IsZero() {
			end = time.Now()
		}
		tr.AddSpanAt(parent, op+".shard", s.start, end.Sub(s.start),
			telemetry.Attr{Key: "worker", Value: w},
			telemetry.Attr{Key: "tasks", Value: s.tasks})
	}
}

// Ticker serializes per-task progress ticks from pool workers onto one
// telemetry.Reporter (which is single-goroutine by contract). It counts
// completed tasks, so ticks are monotone regardless of completion order.
//
// A nil Ticker is valid and inert; NewTicker returns nil when no
// ProgressFunc is attached, keeping the disabled path free of the mutex.
type Ticker struct {
	mu   sync.Mutex
	rep  *telemetry.Reporter
	done int64
}

// NewTicker wraps rep for concurrent ticking, or returns nil when rep is
// nil (no progress consumer on the context).
func NewTicker(rep *telemetry.Reporter) *Ticker {
	if rep == nil {
		return nil
	}
	return &Ticker{rep: rep}
}

// Tick records one completed task and forwards the running count to the
// reporter under its rate limit.
func (t *Ticker) Tick() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.rep.Tick(t.done)
	t.mu.Unlock()
}

// Count returns how many tasks have completed so far — the Done value for a
// final progress report when a fan-out stops early.
func (t *Ticker) Count() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}
