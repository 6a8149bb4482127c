// Package batch schedules many independent eigensolves over a bounded set
// of worker goroutines. The workloads the paper actually reports — the
// Figure 1 error-threshold curves, threshold bisection, speedup and
// accuracy scans — are sweeps of tens to hundreds of eigensolves that are
// mutually independent, so solve-level parallelism composes with the
// kernel-level parallelism of internal/device: one shared device serves
// the BLAS kernels while the scheduler here keeps several power
// iterations in flight.
//
// Design constraints, in order:
//
//   - Deterministic results. Tasks are identified by their index; every
//     task writes into its own caller-owned result slot, so the output
//     order never depends on scheduling. Combined with the worker-count
//     invariance of the blocked kernels (see internal/mutation), a sweep
//     is bit-identical at every worker count.
//   - Bounded memory. At most `workers` tasks are in flight, and each
//     task is told the index of the worker running it, so callers can keep
//     one scratch set per worker index: a 500-point sweep allocates the
//     scratch of `workers` solves, not 500.
//   - Warm-start friendliness. Continuation along a monotone sweep is
//     inherently sequential, so the unit of scheduling for warm-started
//     sweeps is a chain of consecutive points (see Chains) whose length
//     depends on the sweep's point count alone, never on the worker count,
//     which keeps warm-started results worker-count invariant too.
package batch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/span"
)

// Batch-layer span names (internal/span): SpanRun covers a whole Run call,
// SpanTask one task execution (its End args are worker and task index, so
// the exported trace shows worker occupancy over time). SpanTaskFailed is a
// zero-length post-hoc record inside the task span of a task that returned
// an error: it carries no time, only the failure for the qs_batch_*
// metrics. The span recorder is the scheduler's only observer; the
// disabled cost is one atomic pointer load per Run.
const (
	SpanRun        = "run"
	SpanTask       = "task"
	SpanTaskFailed = "task_failed"
)

// PanicHook receives a task panic caught in a scheduler worker: the task
// index, the recovered value, and the worker's stack at the panic site.
// The worker re-panics with the original value after the hook returns, so
// installing a hook never changes crash semantics — it only gives the
// flight recorder a chance to dump a diagnostic bundle first. Hooks may
// be called concurrently and must not panic themselves.
type PanicHook func(task int, recovered any, stack []byte)

type panicHookHolder struct{ h PanicHook }

var panicHook atomic.Pointer[panicHookHolder]

// SetPanicHook installs h as the process-wide worker panic hook (nil
// uninstalls). The disabled cost is one atomic pointer load per task.
func SetPanicHook(h PanicHook) {
	if h == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&panicHookHolder{h: h})
}

// runHooked executes task(i, worker) with a recover bracket that feeds the
// panic hook and then re-panics. Split from runOne so the nil-hook path
// never pays for the deferred closure.
func runHooked(hook PanicHook, task func(i, worker int) error, i, worker int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			hook(i, r, buf)
			panic(r)
		}
	}()
	return task(i, worker)
}

// DefaultChainLen is the shortest warm-start chain Chains lays out when the
// caller does not choose a length. Within a chain, point k seeds the solve
// of point k+1; across chains solves are independent, which is what the
// scheduler parallelizes. A chain's first points cost the most (a cold
// head, then starts extrapolated through too few vectors), so the default
// layout grows chains past eight points on long sweeps rather than run
// more than maxDefaultChains of them: sweeps of up to 64 points keep
// eight-point chains, and longer ones run as eight chains.
const DefaultChainLen = 8

// maxDefaultChains caps the number of chains of the default layout. It
// also caps the parallelism of one such sweep at eight workers.
const maxDefaultChains = 8

// Workers normalizes a requested worker count: n ≤ 0 selects all available
// cores (the solver convention shared with device.New), anything else is
// returned as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes task(i, worker) for every i in [0, n) over min(workers, n)
// goroutines. Tasks are claimed from a shared queue in index order; worker
// is the index in [0, min(workers, n)) of the goroutine running the task,
// and no two tasks run concurrently with the same worker index, so a
// caller may index per-worker scratch by it without locks. Run returns after
// every launched task finished. If tasks fail, the error of the
// lowest-indexed failing task is returned (deterministic regardless of
// scheduling); remaining queued tasks are still executed, so the caller's
// result slice is fully populated for the indices that succeeded.
func Run(n, workers int, task func(i, worker int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	sr := span.Installed()
	var sp span.Handle
	if sr != nil {
		sp = sr.Begin(span.LayerBatch, SpanRun)
	}
	if workers == 1 {
		// Serial fast path: no goroutines, no synchronization — the
		// reference execution the parallel path is tested against.
		var firstErr error
		firstIdx := n
		for i := 0; i < n; i++ {
			err := runOne(sr, task, i, 0)
			if err != nil && i < firstIdx {
				firstErr, firstIdx = fmt.Errorf("batch: task %d: %w", i, err), i
			}
		}
		span.End(sp, int64(n), int64(workers))
		return firstErr
	}

	var (
		mu       sync.Mutex
		next     int
		firstErr error
		firstIdx = n
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := runOne(sr, task, i, worker); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstErr, firstIdx = fmt.Errorf("batch: task %d: %w", i, err), i
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	span.End(sp, int64(n), int64(workers))
	return firstErr
}

// runOne executes task(i, worker), bracketed by a task span when a
// recorder is installed. Worker goroutines open their task spans on their
// own goroutine, so each worker is its own track in the exported trace.
func runOne(sr span.Recorder, task func(i, worker int) error, i, worker int) error {
	var sp span.Handle
	if sr != nil {
		sp = sr.Begin(span.LayerBatch, SpanTask)
	}
	var err error
	if ph := panicHook.Load(); ph != nil {
		err = runHooked(ph.h, task, i, worker)
	} else {
		err = task(i, worker)
	}
	if err != nil && sr != nil {
		sr.Record(span.LayerBatch, SpanTaskFailed, 0, int64(worker), int64(i))
	}
	span.End(sp, int64(worker), int64(i))
	return err
}

// Chain is one contiguous run of sweep points, [Lo, Hi), processed
// sequentially by a single task so each point can seed the next
// (warm-start continuation).
type Chain struct{ Lo, Hi int }

// Chains partitions [0, n) into contiguous chains of chainLen points
// (the last chain may be shorter). chainLen ≤ 0 selects the default
// layout: chains of max(DefaultChainLen, ⌈n/8⌉) points, so at most eight
// chains. The partition depends only on n and chainLen — never on the
// worker count — so scheduling chains in parallel yields results
// bit-identical to processing them serially.
func Chains(n, chainLen int) []Chain {
	if n <= 0 {
		return nil
	}
	if chainLen <= 0 {
		chainLen = max(DefaultChainLen, (n+maxDefaultChains-1)/maxDefaultChains)
	}
	out := make([]Chain, 0, (n+chainLen-1)/chainLen)
	for lo := 0; lo < n; lo += chainLen {
		hi := lo + chainLen
		if hi > n {
			hi = n
		}
		out = append(out, Chain{Lo: lo, Hi: hi})
	}
	return out
}
