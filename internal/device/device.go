// Package device provides a software stand-in for the paper's OpenCL
// execution environment: a "kernel launch" runtime that runs a data-parallel
// kernel body over a logical thread grid using a pool of worker goroutines.
//
// The paper's GPU implementation (Section 4, Algorithm 2) launches one
// kernel with N/2 threads per butterfly stage; each logical thread executes
// an independent body and the host loop forms an implicit barrier between
// stages. This package reproduces exactly that execution model:
//
//   - Launch(n, kernel) runs kernel(id) for every id in [0, n) and returns
//     only after all logical threads finished (the stage barrier);
//   - LaunchStages dispatches a whole fused stage-group as one launch with
//     a single barrier, the dispatch form used by the cache-blocked
//     butterfly kernels (one barrier per group instead of one per stage);
//   - logical threads are chunked over a persistent pool of long-lived
//     worker goroutines parked on a channel (see pool.go), the software
//     analogue of scheduling thread blocks over resident multiprocessors;
//   - Reduce implements the parallel reduction tree used for norms and
//     residuals, which the paper notes "can be relatively well parallelized".
//
// A Device with one worker executes everything on the calling goroutine,
// giving a serial twin with identical semantics for testing. Launch
// statistics are recorded so benchmarks can report grid sizes.
package device

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/span"
)

// Device executes data-parallel kernels over worker goroutines. A Device is
// safe for sequential reuse; concurrent Launch calls on the same Device are
// permitted (the pool serves them independently) but kernels racing on the
// same data remain the caller's responsibility.
type Device struct {
	workers int
	grain   int

	launches       atomic.Int64
	threadsTotal   atomic.Int64
	chunksTotal    atomic.Int64
	reduceLaunches atomic.Int64
	stageLaunches  atomic.Int64
	stagesFused    atomic.Int64
}

// Option configures a Device.
type Option func(*Device)

// WithGrain sets the minimum number of logical threads per dispatched chunk.
// Smaller grains increase scheduling overhead; larger grains reduce
// available parallelism. The default (4096) matches the memory-bound
// character of the butterfly kernel.
func WithGrain(g int) Option {
	return func(d *Device) {
		if g > 0 {
			d.grain = g
		}
	}
}

// New returns a Device with the given number of workers. workers <= 0
// selects runtime.GOMAXPROCS(0), the software analogue of "all
// multiprocessors on the card".
func New(workers int, opts ...Option) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &Device{workers: workers, grain: 4096}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Serial returns a Device that runs every kernel on the calling goroutine.
// It is the bit-identical reference for the parallel paths.
func Serial() *Device { return New(1) }

// Workers returns the worker count of the device.
func (d *Device) Workers() int { return d.workers }

// Launch runs kernel(id) for every logical thread id in [0, n) and returns
// after all of them completed — one kernel launch with grid size n in GPU
// terms. Kernels must not assume any execution order between ids.
func (d *Device) Launch(n int, kernel func(id int)) {
	d.LaunchRange(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			kernel(id)
		}
	})
}

// plan partitions a grid of n logical threads into contiguous chunks of at
// least grain threads, at most one chunk per worker.
func (d *Device) plan(n, grain int) (chunk, nchunks int) {
	if grain < 1 {
		grain = 1
	}
	chunk = (n + d.workers - 1) / d.workers
	if chunk < grain {
		chunk = grain
	}
	return chunk, (n + chunk - 1) / chunk
}

// LaunchRange runs kernel(lo, hi) over a partition of [0, n) into
// contiguous chunks. It is the chunked form of Launch for kernels that can
// amortize per-thread setup over a range, mirroring how real kernels
// process several elements per thread when profitable.
func (d *Device) LaunchRange(n int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	d.launches.Add(1)
	d.threadsTotal.Add(int64(n))

	chunk, nchunks := d.plan(n, d.grain)
	d.chunksTotal.Add(int64(nchunks))
	d.run(LaunchKindRange, launch{kernel: kernel, n: n, chunk: chunk, nchunks: nchunks})
}

// LaunchStages dispatches a fused group of `stages` dependent butterfly
// stages as ONE data-parallel launch over n independent work items: the
// kernel applies the whole stage-group to each item it receives, so the
// only barrier is the launch's own completion — one barrier per group
// instead of one per stage. weight is the number of scalar elements each
// work item touches (e.g. the tile length); the dispatch grain is scaled by
// it so heavyweight items still spread across workers.
func (d *Device) LaunchStages(stages, n, weight int, kernel func(lo, hi int)) {
	if n <= 0 || stages <= 0 {
		return
	}
	d.launches.Add(1)
	d.stageLaunches.Add(1)
	d.stagesFused.Add(int64(stages))
	d.threadsTotal.Add(int64(n))

	if weight < 1 {
		weight = 1
	}
	chunk, nchunks := d.plan(n, d.grain/weight)
	d.chunksTotal.Add(int64(nchunks))
	d.run(LaunchKindStages, launch{kernel: kernel, n: n, chunk: chunk, nchunks: nchunks})
}

// run executes a planned launch with the configured dispatch and returns
// the per-chunk partials of a reduce launch (nil otherwise). kind is the
// name of the device-layer launch span; with no span recorder installed the
// only instrumentation cost is one atomic load.
func (d *Device) run(kind string, l launch) [][2]float64 {
	sr := span.Installed()
	if sr == nil {
		sums, _ := d.dispatch(l, false)
		return sums
	}
	sp := sr.Begin(span.LayerDevice, kind)
	sums, wait := d.dispatch(l, true)
	// The barrier tail is reported post hoc inside the still-open launch
	// span, so it shows as the launch's child in the profile.
	sr.Record(span.LayerDevice, SpanQueueWait, wait, int64(l.nchunks), 0)
	span.End(sp, int64(l.n), int64(l.nchunks))
	return sums
}

// dispatch runs a planned launch and returns a reduce launch's partials;
// with measureWait it also returns the barrier tail the submitting
// goroutine spent waiting on pool workers. The batch is allocated only for
// multi-chunk grids, so a single-chunk launch costs no allocation.
func (d *Device) dispatch(l launch, measureWait bool) ([][2]float64, time.Duration) {
	if l.nchunks == 1 || d.workers == 1 {
		l.kernel(0, l.n)
		return nil, 0
	}
	b := newBatch(l)
	return b.sums, runPooled(b, d.workers-1, measureWait)
}

// Reduce computes the combination of f(0) … f(n−1) under the associative
// operator combine, with identity as the neutral element. Each worker
// reduces a contiguous chunk locally; partial results are combined in
// deterministic chunk order, so the result is independent of scheduling and
// of the worker count (floating-point addition is not associative, and a
// fixed combination order keeps runs reproducible).
func (d *Device) Reduce(n int, identity float64, f func(i int) float64, combine func(a, b float64) float64) float64 {
	if n <= 0 {
		return identity
	}
	d.reduceLaunches.Add(1)

	chunk, nchunks := d.plan(n, d.grain)
	if nchunks == 1 || d.workers == 1 {
		acc := identity
		for i := 0; i < n; i++ {
			acc = combine(acc, f(i))
		}
		return acc
	}
	sums := d.run(LaunchKindReduce, launch{reduce: func(lo, hi int) (float64, float64) {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = combine(acc, f(i))
		}
		return acc, 0
	}, n: n, chunk: chunk, nchunks: nchunks})
	acc := identity
	for _, s := range sums {
		acc = combine(acc, s[0])
	}
	return acc
}

// ReduceSum computes Σ f(i) for i in [0, n) using Reduce.
func (d *Device) ReduceSum(n int, f func(i int) float64) float64 {
	return d.Reduce(n, 0, f, func(a, b float64) float64 { return a + b })
}

// Stats is a snapshot of the launch counters of a Device.
type Stats struct {
	Launches       int64 // kernel launches performed (incl. stage-group launches)
	ReduceLaunches int64 // reduction launches performed
	ThreadsTotal   int64 // sum of grid sizes over all launches
	ChunksTotal    int64 // dispatched chunks over all launches
	StageLaunches  int64 // fused stage-group launches (LaunchStages calls)
	StagesFused    int64 // butterfly stages covered by stage-group launches
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Launches:       d.launches.Load(),
		ReduceLaunches: d.reduceLaunches.Load(),
		ThreadsTotal:   d.threadsTotal.Load(),
		ChunksTotal:    d.chunksTotal.Load(),
		StageLaunches:  d.stageLaunches.Load(),
		StagesFused:    d.stagesFused.Load(),
	}
}

// ResetStats zeroes the device counters.
func (d *Device) ResetStats() {
	d.launches.Store(0)
	d.threadsTotal.Store(0)
	d.chunksTotal.Store(0)
	d.reduceLaunches.Store(0)
	d.stageLaunches.Store(0)
	d.stagesFused.Store(0)
}

// String describes the device, e.g. "device(8 workers, grain 4096)".
func (d *Device) String() string {
	return fmt.Sprintf("device(%d workers, grain %d)", d.workers, d.grain)
}
