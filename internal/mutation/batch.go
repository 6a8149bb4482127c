package mutation

import (
	"repro/internal/device"
	"repro/internal/span"
)

// This file implements the multi-vector form of the fast mutation matrix
// product: K independent vectors pushed through the butterfly stages in
// ONE shared stage traversal. The batched sweep engine (internal/batch +
// internal/harness) uses it for block power iterations and for verifying
// all solutions of a sweep with a single operator pass.
//
// The traversal is restructured so the *stage plan* — tile split, fused
// cross-stage groups, row-block enumeration — is computed once and the
// vectors stream through it innermost: for the tile pass the tile index is
// outer and the vectors inner (each vector's tile is cache-resident while
// every small-stride stage is applied to it), and for the fused
// large-stride passes the interacting row block is enumerated once and all
// K vectors' row groups are swept before the next block (row-block
// interleaving). Per vector the arithmetic — stage order, fusion grouping,
// rounding sequence — is exactly that of Apply, so ApplyBatch is
// BIT-IDENTICAL to applying Apply to each vector separately; the batched
// device dispatch additionally fuses the K vectors' launches into one grid
// per stage group, cutting barrier count by the batch width.

// ApplyBatch computes vᵢ ← Q·vᵢ in place for every vector of vs with one
// shared stage traversal. Results are bit-identical to calling Apply on
// each vector. All vectors must have length 2^ν; vs may be empty.
func (q *Process) ApplyBatch(vs [][]float64) {
	for _, v := range vs {
		q.checkDim(len(v))
	}
	if len(vs) == 0 {
		return
	}
	if len(vs) == 1 {
		q.Apply(vs[0])
		return
	}
	sp := span.Begin(span.LayerMutation, KindApplyBatch)
	tb := TileBits()
	for _, s := range q.segs {
		if s.grp < 0 {
			applyStagesBlockedBatch(vs, s.off0, s.fs, tb, fuseStages)
		} else {
			// Grouped factors share the Process-owned gather scratch, so
			// vectors pass through sequentially.
			for _, v := range vs {
				q.applyGroupSerial(q.groups[s.grp], v)
			}
		}
	}
	span.End(sp, int64(q.nu), int64(len(vs)))
}

// ApplyBatchDevice is ApplyBatch on the device runtime: each fused stage
// group is ONE launch over the combined grid of all K vectors' tiles
// (resp. row blocks), so a batch of K matvecs costs the same number of
// barriers as a single matvec. Bit-identical to ApplyBatch (and hence to
// per-vector Apply) at every worker count.
func (q *Process) ApplyBatchDevice(d *device.Device, vs [][]float64) {
	for _, v := range vs {
		q.checkDim(len(v))
	}
	if len(vs) == 0 {
		return
	}
	if len(vs) == 1 {
		q.ApplyDevice(d, vs[0])
		return
	}
	sp := span.Begin(span.LayerMutation, KindApplyBatchDevice)
	tb := TileBits()
	for _, s := range q.segs {
		if s.grp < 0 {
			applyStagesBlockedBatchDevice(d, vs, s.off0, s.fs, tb, fuseStages)
		} else {
			for _, v := range vs {
				q.applyGroupDevice(d, q.groups[s.grp], v)
			}
		}
	}
	span.End(sp, int64(q.nu), int64(len(vs)))
}

// applyStagesBlockedBatch is applyStagesBlocked over K vectors with the
// vector loop innermost at every level of the traversal, unrolled over K:
// vectors stream through each tile (resp. row block) of the shared stage
// plan TWO at a time via the dual-vector stage walks below, so the stage
// dispatch, butterfly-kind classification and factor loads amortize across
// the pair. Per vector the arithmetic is exactly that of the single-vector
// walk, so the unroll preserves bit-identity with Apply.
func applyStagesBlockedBatch(vs [][]float64, off0 int, fs []Factor2, tb, fuse int) {
	n := len(vs[0])
	if n == 0 || len(fs) == 0 {
		return
	}
	if fuse < 1 {
		fuse = 1
	}
	if fuse > maxFuseStages {
		fuse = maxFuseStages
	}
	B, nSmall := splitStages(n, off0, len(fs), tb)
	if nSmall > 0 {
		small := fs[:nSmall]
		for t := 0; t < n; t += B {
			kv := 0
			for ; kv+2 <= len(vs); kv += 2 {
				tileStagesDual(vs[kv][t:t+B], vs[kv+1][t:t+B], off0, small)
			}
			if kv < len(vs) {
				tileStages(vs[kv][t:t+B], off0, small)
			}
		}
	}
	for s := nSmall; s < len(fs); {
		m := len(fs) - s
		if m > fuse {
			m = fuse
		}
		group := fs[s : s+m]
		rb0 := off0 + s - log2(B)
		lowMask := 1<<uint(rb0) - 1
		nBases := (n >> uint(log2(B))) >> uint(m)
		for bb := 0; bb < nBases; bb++ {
			base := ((bb &^ lowMask) << uint(m)) | (bb & lowMask)
			kv := 0
			for ; kv+2 <= len(vs); kv += 2 {
				crossGroupDual(vs[kv], vs[kv+1], B, base, rb0, group)
			}
			if kv < len(vs) {
				crossGroup(vs[kv], B, base, rb0, group, nil)
			}
		}
		s += m
	}
}

// tileStagesDual is tileStages applied to the same tile index of two
// vectors: one walk of the stage plan, each fused kernel invoked on both
// tiles back to back while the stage's factors sit in registers. Rounding
// per vector is identical to the single-vector walk.
func tileStagesDual(ta, tb []float64, off0 int, fs []Factor2) {
	s := 0
	for ; s+1 < len(fs); s += 2 {
		f1, f2 := &fs[s], &fs[s+1]
		stride := 1 << uint(off0+s)
		k1, k2 := butterflyKind(f1), butterflyKind(f2)
		switch {
		case k1 == kindStochastic && k2 == kindStochastic:
			tilePairStochastic(ta, stride, f1.B, f2.B)
			tilePairStochastic(tb, stride, f1.B, f2.B)
		case k1 == kindUnitDiff && k2 == kindUnitDiff:
			tilePairUnitDiff(ta, stride, f1.B, f2.B)
			tilePairUnitDiff(tb, stride, f1.B, f2.B)
		default:
			tileStage(ta, stride, f1)
			tileStage(tb, stride, f1)
			tileStage(ta, 2*stride, f2)
			tileStage(tb, 2*stride, f2)
		}
	}
	if s < len(fs) {
		stride := 1 << uint(off0+s)
		tileStage(ta, stride, &fs[s])
		tileStage(tb, stride, &fs[s])
	}
}

// crossGroupDual is crossGroup applied to the same row block of two
// vectors: the row gather, chunk split and per-stage kind dispatch run
// once, each fused kernel sweeping the chunk of both vectors in turn.
func crossGroupDual(va, vb []float64, B, baseRow, rb0 int, fs []Factor2) {
	m := len(fs)
	size := 1 << uint(m)
	var rpa, rpb [1 << maxFuseStages][]float64
	for t := 0; t < size; t++ {
		r := baseRow | t<<uint(rb0)
		rpa[t] = va[r*B : r*B+B]
		rpb[t] = vb[r*B : r*B+B]
	}
	colChunk := colChunkFor(size, B)
	for c0 := 0; c0 < B; c0 += colChunk {
		c1 := c0 + colChunk
		if c1 > B {
			c1 = B
		}
		s := 0
		for ; s+1 < m; s += 2 {
			f1, f2 := &fs[s], &fs[s+1]
			k1, k2 := butterflyKind(f1), butterflyKind(f2)
			bit1, bit2 := 1<<uint(s), 2<<uint(s)
			switch {
			case k1 == kindStochastic && k2 == kindStochastic:
				b1, b2 := f1.B, f2.B
				for t := 0; t < size; t++ {
					if t&(bit1|bit2) != 0 {
						continue
					}
					crossQuadStochastic(rpa[t][c0:c1], rpa[t|bit1][c0:c1],
						rpa[t|bit2][c0:c1], rpa[t|bit1|bit2][c0:c1], b1, b2)
					crossQuadStochastic(rpb[t][c0:c1], rpb[t|bit1][c0:c1],
						rpb[t|bit2][c0:c1], rpb[t|bit1|bit2][c0:c1], b1, b2)
				}
			case k1 == kindUnitDiff && k2 == kindUnitDiff:
				b1, b2 := f1.B, f2.B
				for t := 0; t < size; t++ {
					if t&(bit1|bit2) != 0 {
						continue
					}
					crossQuadUnitDiff(rpa[t][c0:c1], rpa[t|bit1][c0:c1],
						rpa[t|bit2][c0:c1], rpa[t|bit1|bit2][c0:c1], b1, b2)
					crossQuadUnitDiff(rpb[t][c0:c1], rpb[t|bit1][c0:c1],
						rpb[t|bit2][c0:c1], rpb[t|bit1|bit2][c0:c1], b1, b2)
				}
			default:
				crossStage(rpa[:size], c0, c1, s, f1)
				crossStage(rpb[:size], c0, c1, s, f1)
				crossStage(rpa[:size], c0, c1, s+1, f2)
				crossStage(rpb[:size], c0, c1, s+1, f2)
			}
		}
		if s < m {
			crossStage(rpa[:size], c0, c1, s, &fs[s])
			crossStage(rpb[:size], c0, c1, s, &fs[s])
		}
	}
}

// applyStagesBlockedBatchDevice dispatches each fused stage group as one
// launch over the K·(tiles or row blocks) combined grid, vector-major so
// a contiguous chunk of logical threads walks contiguous memory of one
// vector.
func applyStagesBlockedBatchDevice(d *device.Device, vs [][]float64, off0 int, fs []Factor2, tb, fuse int) {
	n := len(vs[0])
	if n == 0 || len(fs) == 0 {
		return
	}
	if fuse < 1 {
		fuse = 1
	}
	if fuse > maxFuseStages {
		fuse = maxFuseStages
	}
	B, nSmall := splitStages(n, off0, len(fs), tb)
	if nSmall > 0 {
		small := fs[:nSmall]
		ntiles := n / B
		d.LaunchStages(nSmall, len(vs)*ntiles, B, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				v, t := vs[id/ntiles], id%ntiles
				tileStages(v[t*B:(t+1)*B], off0, small)
			}
		})
	}
	for s := nSmall; s < len(fs); {
		m := len(fs) - s
		if m > fuse {
			m = fuse
		}
		group := fs[s : s+m]
		rb0 := off0 + s - log2(B)
		lowMask := 1<<uint(rb0) - 1
		nBases := (n >> uint(log2(B))) >> uint(m)
		d.LaunchStages(m, len(vs)*nBases, B<<uint(m), func(lo, hi int) {
			for id := lo; id < hi; id++ {
				v, bb := vs[id/nBases], id%nBases
				base := ((bb &^ lowMask) << uint(m)) | (bb & lowMask)
				crossGroup(v, B, base, rb0, group, nil)
			}
		})
		s += m
	}
}
