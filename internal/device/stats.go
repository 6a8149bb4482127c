package device

import "sync/atomic"

// Process-wide resource accounting for the telemetry sampler: work-stealing
// pool pressure. Everything here is a handful of atomics updated where the
// runtime already pays an atomic (batch barriers), so the counters are
// always on — there is no hook to install and reading them never perturbs
// a run. The sampler (internal/obs) polls these at ~1 Hz; nothing in this
// file is on a per-element kernel path.

// Pool pressure counters (pool.go): chunks claimed from a participant's
// home part vs stolen from another part, and the live depth of the worker
// task queues. One atomic add per participant per launch, amortized in
// runPart.
var poolAcct struct {
	started atomic.Bool
	claimed atomic.Int64
	stolen  atomic.Int64
}

// PoolStats is a point-in-time view of the persistent worker pool.
type PoolStats struct {
	// Workers is the pool size (0 until the first launch starts it).
	Workers int
	// QueueDepth is the number of batches currently sitting unclaimed in
	// worker task queues — sustained > 0 means submitters outpace workers.
	QueueDepth int
	// ChunksClaimed counts chunks executed from a participant's home part;
	// ChunksStolen counts chunks taken from another part after the home
	// part drained. A rising steal share means the sticky partition is
	// unbalanced (stragglers, asymmetric chunk cost).
	ChunksClaimed int64
	ChunksStolen  int64
}

// PoolStatsNow reads the pool counters without starting the pool.
func PoolStatsNow() PoolStats {
	st := PoolStats{
		ChunksClaimed: poolAcct.claimed.Load(),
		ChunksStolen:  poolAcct.stolen.Load(),
	}
	if !poolAcct.started.Load() {
		return st
	}
	st.Workers = len(pool.workers)
	for _, pw := range pool.workers {
		st.QueueDepth += len(pw.tasks)
	}
	return st
}
