package device

import "sync/atomic"

// Process-wide resource accounting for the telemetry sampler: arena
// occupancy per NUMA node and work-stealing pool pressure. Everything here
// is a handful of atomics updated where the runtime already pays an atomic
// (slab growth, batch barriers), so the counters are always on — there is
// no hook to install and reading them never perturbs a run. The sampler
// (internal/obs) polls these at ~1 Hz; nothing in this file is on a
// per-element kernel path.

// maxStatNodes bounds the per-node accounting array; nodes beyond it fold
// into the last bucket (larger hosts exist, but 16 covers every machine
// this solver has met, and the sampler only needs stable attribution).
const maxStatNodes = 16

// arenaStatIdx maps a NUMA node id onto its accounting bucket (bucket 0 is
// for unattributed arenas).
func arenaStatIdx(node int) int {
	if node < 0 {
		return 0
	}
	if node >= maxStatNodes {
		node = maxStatNodes - 1
	}
	return node + 1
}

// arenaAcct holds one bucket per node (plus the unattributed bucket 0):
// total slab capacity, live bump occupancy, and the occupancy high-water.
var arenaAcct [maxStatNodes + 1]struct {
	foot atomic.Int64
	used atomic.Int64
	hi   atomic.Int64
}

func arenaNoteGrow(idx int, floats int64) {
	arenaAcct[idx].foot.Add(floats)
}

func arenaNoteUsed(idx int, delta int64) {
	a := &arenaAcct[idx]
	used := a.used.Add(delta)
	for {
		hi := a.hi.Load()
		if used <= hi || a.hi.CompareAndSwap(hi, used) {
			return
		}
	}
}

// ArenaStats is the live arena accounting of one NUMA node bucket, in
// float64s (multiply by 8 for bytes). Node is -1 for arenas that were
// created without node attribution.
type ArenaStats struct {
	Node            int
	FootprintFloats int64
	UsedFloats      int64
	HighWaterFloats int64
}

// AllArenaStats returns the non-empty arena buckets in node order
// (unattributed first as Node == -1). Buckets that never grew a slab are
// omitted.
func AllArenaStats() []ArenaStats {
	var out []ArenaStats
	for idx := range arenaAcct {
		a := &arenaAcct[idx]
		foot := a.foot.Load()
		if foot == 0 && a.hi.Load() == 0 {
			continue
		}
		out = append(out, ArenaStats{
			Node:            idx - 1,
			FootprintFloats: foot,
			UsedFloats:      a.used.Load(),
			HighWaterFloats: a.hi.Load(),
		})
	}
	return out
}

// ArenaTotals sums the buckets: total slab capacity, live occupancy, and
// the largest per-bucket high-water.
func ArenaTotals() (footprint, used, highWater int64) {
	for idx := range arenaAcct {
		a := &arenaAcct[idx]
		footprint += a.foot.Load()
		used += a.used.Load()
		if hi := a.hi.Load(); hi > highWater {
			highWater = hi
		}
	}
	return
}

// NewWorkerArena returns an arena attributed to the NUMA node that worker w
// of a pool of `total` workers is pinned to (the same block mapping the
// pool uses), so per-worker scratch shows up under its node in the
// telemetry rather than in the unattributed bucket.
func NewWorkerArena(w, total int) *Arena {
	if total < 1 {
		total = 1
	}
	a := NewArena(0)
	a.statIdx = arenaStatIdx(Topo().NodeOf(w, total))
	return a
}

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
