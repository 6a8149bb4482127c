package device

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the persistent worker pool behind every Device.
//
// Spawning fresh goroutines for every kernel launch — log₂N launches per
// matvec, thousands of matvecs per solve — would pay the scheduler cost of
// goroutine creation millions of times per run. Real devices do not
// re-create their multiprocessors per launch; they keep them parked and
// hand them work. The pool reproduces that: a process-wide set of
// GOMAXPROCS long-lived workers parked on one shared task queue, woken
// with one pointer-sized send per invited helper.
//
// A launch in flight is a batch with one atomic cursor: the submitting
// goroutine and every helper that picks the batch off the queue claim
// chunks from that cursor in index order until the grid is exhausted, so
// load balances without per-chunk goroutines or per-worker state. Which
// participant executes a chunk never affects results — kernels write
// disjoint ranges and reductions add their partials in piece order.
//
// The submitting goroutine always participates in its own batch, so a
// launch completes even if every pool worker is busy (or the queue is
// full): in the worst case the caller runs all chunks itself. This also
// makes nested launches deadlock-free by construction.

// inlinePartials is how many piece partials a reduce batch holds inline,
// so a reduction over up to that many pieces costs the same single heap
// object as a plain launch. 32 vec.ReduceChunk pieces cover vectors of up
// to 2^22 elements (ν ≤ 22).
const inlinePartials = 32

// launch is one planned kernel launch: a grid of n logical threads in
// nchunks contiguous chunks of chunk threads. Exactly one of kernel and
// reduce is set; a reduce launch always has nchunks > 1 (single-chunk
// reductions run on the caller without a launch).
type launch struct {
	kernel  func(lo, hi int)
	reduce  func(lo, hi int) (float64, float64)
	n       int
	chunk   int
	nchunks int
}

// batch is one kernel launch in flight: the launch's chunks, claimed in
// index order through one atomic cursor by however many participants join.
type batch struct {
	launch
	next atomic.Int64
	wg   sync.WaitGroup
	// sums[c] receives chunk c's two partials in a reduce launch.
	sums [][2]float64
}

// reduceBatch is a reduce launch's batch with inline partial storage.
type reduceBatch struct {
	batch
	buf [inlinePartials][2]float64
}

// newBatch allocates the in-flight state of a multi-chunk launch.
func newBatch(l launch) *batch {
	if l.reduce == nil {
		return &batch{launch: l}
	}
	rb := &reduceBatch{batch: batch{launch: l}}
	if n := uint(l.nchunks); n <= uint(len(rb.buf)) {
		rb.sums = rb.buf[:n]
	} else {
		rb.sums = make([][2]float64, l.nchunks)
	}
	return &rb.batch
}

// exec runs chunk c of the batch.
func (b *batch) exec(c int) {
	lo := c * b.chunk
	hi := lo + b.chunk
	if hi > b.n {
		hi = b.n
	}
	if b.reduce == nil {
		b.kernel(lo, hi)
		return
	}
	s, t := b.reduce(lo, hi)
	b.sums[c] = [2]float64{s, t}
}

// claim executes chunks taken from the batch's cursor until the batch is
// exhausted. A worker that picks up an already finished batch claims past
// the end once and returns.
func (b *batch) claim() {
	for {
		c := int(b.next.Add(1)) - 1
		if c >= b.nchunks {
			return
		}
		b.exec(c)
		b.wg.Done()
	}
}

var pool struct {
	once  sync.Once
	size  int
	tasks chan *batch
}

// poolQueue lazily starts the process-wide worker pool and returns its
// shared task queue and worker count. The pool is sized to
// runtime.GOMAXPROCS(0) at first use — the software analogue of "all
// multiprocessors on the card" — and lives for the remainder of the
// process; per-Device worker counts below that merely cap how many workers
// are invited to a given batch.
func poolQueue() (chan<- *batch, int) {
	pool.once.Do(func() {
		pool.size = max(runtime.GOMAXPROCS(0), 1)
		pool.tasks = make(chan *batch, 8*pool.size)
		for i := 0; i < pool.size; i++ {
			go func() {
				for b := range pool.tasks {
					b.claim()
				}
			}()
		}
	})
	return pool.tasks, pool.size
}

// runPooled executes the batch on the persistent pool: up to helpers pool
// workers are invited with non-blocking sends to the shared queue (a full
// queue just means the caller and the others claim more chunks), the
// caller joins the batch itself, and the barrier is the batch's own
// WaitGroup. With measureWait it returns how long the caller was blocked
// on that barrier after the cursor ran out — the straggler/queue-wait tail
// reported as the queue_wait span.
func runPooled(b *batch, helpers int, measureWait bool) time.Duration {
	b.wg.Add(b.nchunks)
	tasks, size := poolQueue()
	helpers = min(helpers, b.nchunks-1, size)
	for i := 0; i < helpers; i++ {
		select {
		case tasks <- b:
		default:
		}
	}
	b.claim()
	if measureWait {
		start := time.Now()
		b.wg.Wait()
		return time.Since(start)
	}
	b.wg.Wait()
	return 0
}
