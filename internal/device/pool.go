package device

import (
	"os"
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
// hand them work. The pool reproduces that: a process-wide
// set of GOMAXPROCS long-lived workers, woken with one pointer-sized send
// per launch, and work-stealing chunk claiming so load balances without
// per-chunk goroutines.
//
// Two topology refinements sit on top of the original design:
//
//   - Sticky chunk→worker affinity. The chunk index space of a batch is
//     split into contiguous PARTS, one per invited participant, and worker
//     w always starts on part w+1 (the caller on part 0). Because a given
//     Device produces the same chunk geometry for the same grid, worker w
//     re-visits the same rows launch after launch — the stage passes of a
//     matvec, and the matvecs of an iteration, stay cache- and (via
//     first-touch, see alloc.go) NUMA-node-warm. Each part has its own
//     atomic cursor; a participant that drains its part steals from the
//     others in ring order, so the worst-case balance of the old single
//     counter is preserved. Which worker executes a chunk never affects
//     results — kernels write disjoint ranges and reductions combine in
//     chunk order — so stickiness is invisible to the determinism
//     guarantees.
//
//   - Topology pinning. On hosts with multiple NUMA nodes (or when forced
//     with QS_PIN=1) each worker locks its goroutine to an OS thread and
//     pins that thread to the CPUs of its node (contiguous worker blocks
//     per node, matching Topology.NodeOf). Strictly best-effort: any
//     failure leaves the worker unpinned and correct. QS_PIN=0 disables
//     pinning even on multi-node hosts.
//
// The submitting goroutine always participates in its own batch, so a
// launch completes even if every pool worker is busy (or its queue is
// full): in the worst case the caller runs all chunks itself. This also
// makes nested launches deadlock-free by construction.

// maxBatchParts caps how many sticky parts a batch is split into; workers
// beyond the cap share parts round-robin. 32 unpadded cursors keep the
// batch header at a few cache lines — cursor contention is one atomic add
// per chunk, far below the kernel work per chunk (≥ grain elements).
const maxBatchParts = 32

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

// batch is one kernel launch in flight: the launch's chunks, split into
// nparts contiguous parts claimed via per-part atomic cursors by however
// many workers join in.
type batch struct {
	launch
	nparts int
	wg     sync.WaitGroup
	parts  [maxBatchParts]atomic.Int64
	// sums[c] receives chunk c's two partials in a reduce launch.
	sums [][2]float64
}

// reduceBatch is a reduce launch's batch with inline partial storage, so a
// reduction over up to maxBatchParts chunks costs the same single heap
// object as a plain launch.
type reduceBatch struct {
	batch
	buf [maxBatchParts][2]float64
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

// partBounds returns the chunk-index range [lo, hi) of part p.
func (b *batch) partBounds(p int) (lo, hi int) {
	return p * b.nchunks / b.nparts, (p + 1) * b.nchunks / b.nparts
}

// runPart claims and executes chunks starting from part home, stealing from
// the other parts in ring order once home is drained, until the batch is
// exhausted. It is called by the submitting goroutine (home 0) and by any
// pool worker that received the batch; a worker arriving after completion
// scans nparts drained cursors and returns.
func (b *batch) runPart(home int) {
	var claimed, stolen int64
	for q := 0; q < b.nparts; q++ {
		p := home + q
		if p >= b.nparts {
			p -= b.nparts
		}
		lo, hi := b.partBounds(p)
		for {
			c := lo + int(b.parts[p].Add(1)) - 1
			if c >= hi {
				break
			}
			if q == 0 {
				claimed++
			} else {
				stolen++
			}
			b.exec(c)
			b.wg.Done()
		}
	}
	// Telemetry: one amortized atomic add per participant per launch, far
	// below the per-chunk cursor traffic above.
	if claimed != 0 {
		poolAcct.claimed.Add(claimed)
	}
	if stolen != 0 {
		poolAcct.stolen.Add(stolen)
	}
}

// poolWorker is one persistent worker: a parked goroutine with its own
// queue (so launches can address workers individually — the sticky map) and
// a fixed home node from the detected topology.
type poolWorker struct {
	id    int
	tasks chan *batch
}

var pool struct {
	once    sync.Once
	workers []*poolWorker
}

// pinningWanted decides whether pool workers pin to their node's CPUs:
// QS_PIN=1 forces it, QS_PIN=0 forbids it, and the default is to pin
// exactly when the host has more than one NUMA node (where placement pays
// for the loss of scheduler freedom).
func pinningWanted(t *Topology) bool {
	switch os.Getenv("QS_PIN") {
	case "1":
		return true
	case "0":
		return false
	}
	return t.Nodes() > 1
}

// poolWorkers lazily starts the process-wide worker pool. The pool is sized
// to runtime.GOMAXPROCS(0) at first use — the software analogue of "all
// multiprocessors on the card" — and lives for the remainder of the
// process; per-Device worker counts below that merely cap how many workers
// are invited to a given batch.
func poolWorkers() []*poolWorker {
	pool.once.Do(func() {
		w := runtime.GOMAXPROCS(0)
		if w < 1 {
			w = 1
		}
		t := Topo()
		pin := pinningWanted(t)
		pool.workers = make([]*poolWorker, w)
		for i := 0; i < w; i++ {
			pw := &poolWorker{id: i, tasks: make(chan *batch, 8)}
			pool.workers[i] = pw
			go func() {
				if pin {
					// Dedicated worker: locking the goroutine to its
					// thread for the process lifetime is the point.
					runtime.LockOSThread()
					pinThreadToCPUs(t.NodeCPUs[t.NodeOf(pw.id, w)])
				}
				for b := range pw.tasks {
					home := 0
					if b.nparts > 1 {
						home = 1 + pw.id%(b.nparts-1)
					}
					b.runPart(home)
				}
			}()
		}
		poolAcct.started.Store(true)
	})
	return pool.workers
}

// runPooled executes the batch on the persistent pool: up to helpers pool
// workers are invited with non-blocking sends to their own queues (a busy
// worker just means the caller and the others cover its part via
// stealing), the caller joins the batch itself on part 0, and the barrier
// is the batch's own WaitGroup. With measureWait it returns how long the
// caller was blocked on that barrier after finishing its own chunks — the
// straggler/queue-wait tail reported as the queue_wait span.
func runPooled(b *batch, helpers int, measureWait bool) time.Duration {
	b.wg.Add(b.nchunks)
	if helpers > b.nchunks-1 {
		helpers = b.nchunks - 1
	}
	ws := poolWorkers()
	if helpers > len(ws) {
		helpers = len(ws)
	}
	b.nparts = helpers + 1
	if b.nparts > maxBatchParts {
		b.nparts = maxBatchParts
	}
	if b.nparts < 1 {
		b.nparts = 1
	}
	for i := 0; i < helpers; i++ {
		select {
		case ws[i].tasks <- b:
		default:
		}
	}
	b.runPart(0)
	if measureWait {
		start := time.Now()
		b.wg.Wait()
		return time.Since(start)
	}
	b.wg.Wait()
	return 0
}
