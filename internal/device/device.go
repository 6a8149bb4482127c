// Package device provides a software stand-in for the paper's OpenCL
// execution environment: a "kernel launch" runtime that runs a data-parallel
// kernel body over a logical thread grid using a pool of worker goroutines.
//
// The paper's GPU implementation (Section 4, Algorithm 2) launches one
// kernel with N/2 threads per butterfly stage; each logical thread executes
// an independent body and the host loop forms an implicit barrier between
// stages. This package reproduces exactly that execution model:
//
//   - LaunchRange(n, kernel) runs kernel over a partition of [0, n) into
//     chunks and returns only after all of them finished (the stage
//     barrier);
//   - LaunchStages dispatches a whole fused stage-group as one launch with
//     a single barrier, the dispatch form used by the cache-blocked
//     butterfly kernels (one barrier per group instead of one per stage);
//   - logical threads are chunked over a persistent pool of long-lived
//     worker goroutines parked on a channel (see pool.go), the software
//     analogue of scheduling thread blocks over resident multiprocessors;
//   - the vector kernels (veckernels.go) reduce the norms and residuals,
//     which the paper notes "can be relatively well parallelized", on
//     chunks fixed by the vector length alone, so they return the serial
//     bits at every worker count.
//
// A Device with one worker executes everything on the calling goroutine,
// and a nil *Device is the serial device of the vector kernels.
package device

import (
	"fmt"
	"runtime"
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
// contiguous chunks: one kernel launch with grid size n in GPU terms, each
// chunk amortizing per-thread setup over a range, as real kernels process
// several elements per thread when profitable. Kernels must not assume any
// execution order between chunks.
func (d *Device) LaunchRange(n int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk, nchunks := d.plan(n, d.grain)
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
	if weight < 1 {
		weight = 1
	}
	chunk, nchunks := d.plan(n, d.grain/weight)
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

// String describes the device, e.g. "device(8 workers, grain 4096)".
func (d *Device) String() string {
	return fmt.Sprintf("device(%d workers, grain %d)", d.workers, d.grain)
}
