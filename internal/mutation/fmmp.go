package mutation

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// This file implements the paper's central contribution: the fast mutation
// matrix product Fmmp (Section 2.1). The Kronecker recursion
//
//	Q(ν)·v = [ (1−p)·v̄₁ + p·v̄₂ ]   with  v̄ᵢ = Q(ν−1)·vᵢ          (Eq. 9)
//	         [ p·v̄₁ + (1−p)·v̄₂ ]
//
// unrolls into log₂N butterfly stages over the vector, exactly like the
// FFT/FWHT, giving Θ(N·log₂N) time, in-situ operation and zero matrix
// storage. The production kernels are the cache-blocked, stage-fused form
// of blocked.go; ApplyNaive keeps the literal one-pass-per-stage loop of
// Algorithm 1 as the bit-identical reference and ablation baseline.

// Apply computes v ← Q·v in place with the stage order of Algorithm 1
// (Eq. 9: strides ascending), executed by the cache-blocked kernels. The
// result is bit-identical to ApplyNaive. It panics if len(v) != 2^ν.
func (q *Process) Apply(v []float64) {
	q.checkDim(len(v))
	q.apply(v, nil, nil, nil)
}

// ApplyFused computes dst ← Q·(src ⊙ pre) and then the elementwise tail ep
// (see Epilogue), on the serial path (dev == nil, as Apply) or on the device
// (as ApplyDevice). The scale pre rides in the first tile pass and ep in the
// last butterfly pass, so neither costs a pass of its own; a nil pre means
// dst ← Q·src. The result is bit-identical to Mul(dst, src, pre), then
// Apply(dst) resp. ApplyDevice(dev, dst), then ep as separate passes. dst may
// alias src.
func (q *Process) ApplyFused(dev *device.Device, dst, src, pre []float64, ep Epilogue) {
	q.checkDim(len(dst))
	q.checkDim(len(src))
	if pre != nil {
		q.checkDim(len(pre))
	}
	if ep.Post != nil {
		q.checkDim(len(ep.Post))
	}
	if ep.Out != nil {
		q.checkDim(len(ep.Out))
		q.checkDim(len(ep.Z))
	}
	first := len(q.segs) > 0 && q.segs[0].grp < 0
	switch {
	case pre != nil && !first:
		// A grouped first factor gathers strided elements instead of
		// sweeping tiles, so the scale gets its own pass.
		if dev != nil {
			dev.Mul(dst, src, pre)
		} else {
			vec.Mul(dst, src, pre)
		}
		pre = nil
	case pre == nil && &dst[0] != &src[0]:
		if dev != nil {
			dev.Copy(dst, src)
		} else {
			copy(dst, src)
		}
	}
	// Likewise a grouped last factor leaves the epilogue a pass of its own.
	fuseTail := ep.active() && len(q.segs) > 0 && q.segs[len(q.segs)-1].grp < 0
	if dev != nil {
		// The launch closures retain the epilogue, so it gets a heap copy;
		// &ep must not reach them, or the serial path would allocate too.
		var tail *Epilogue
		if fuseTail {
			tail = new(Epilogue)
			*tail = ep
		}
		q.applyDevice(dev, dst, src, pre, tail)
	} else {
		var tail *Epilogue
		if fuseTail {
			tail = &ep
		}
		q.apply(dst, src, pre, tail)
	}
	if ep.active() && !fuseTail {
		ep.runPass(dev, dst)
	}
}

// apply is Apply on v ← src ⊙ scale when scale is non-nil, with ep fused
// into the last segment's last pass when non-nil; the caller guarantees the
// first (resp. last) segment is a blocked one in those cases.
func (q *Process) apply(v, src, scale []float64, ep *Epilogue) {
	sr := span.Installed()
	var sp span.Handle
	if sr != nil {
		sp = sr.Begin(span.LayerMutation, KindApply)
	}
	tb := TileBits()
	for i, s := range q.segs {
		var gsp span.Handle
		if sr != nil {
			gsp = sr.Begin(span.LayerMutation, KindStageGroup)
		}
		if s.grp < 0 {
			applyStagesBlockedScaled(v, src, scale, s.off0, s.fs, tb, fuseStages, lastPass(ep, i == len(q.segs)-1))
			src, scale = nil, nil
			span.End(gsp, int64(len(s.fs)), 1)
		} else {
			q.applyGroupSerial(q.groups[s.grp], v)
			span.End(gsp, int64(q.groups[s.grp].bitsLen), 1)
		}
	}
	span.End(sp, int64(q.nu), 1)
}

// ApplyNaive computes v ← Q·v with the literal stage loop of Algorithm 1:
// one full pass over the vector per butterfly stage. It is the reference
// the blocked kernels are verified against (bit-identical) and the
// baseline of the blocked-vs-naive benchmarks.
func (q *Process) ApplyNaive(v []float64) {
	q.checkDim(len(v))
	for _, g := range q.groups {
		q.applyGroupSerial(g, v)
	}
}

// ApplyDescending computes v ← Q·v with the stage order of Eq. 10 (strides
// descending, obtained "by turning around the outermost i-loop"). The
// stages act on disjoint bit positions and commute in exact arithmetic, so
// the result matches Apply up to floating-point rounding; both orders are
// kept for the ablation benchmarks.
func (q *Process) ApplyDescending(v []float64) {
	q.checkDim(len(v))
	for gi := len(q.groups) - 1; gi >= 0; gi-- {
		q.applyGroupSerial(q.groups[gi], v)
	}
}

// ApplyRecursive computes v ← Q·v by the literal recursion of Eq. 9
// (split, recurse, combine). It allocates Θ(N) scratch and exists as an
// executable statement of the derivation; Apply is the production path.
// Only valid for single-bit groups (standard and per-site processes).
func (q *Process) ApplyRecursive(v []float64) {
	q.checkDim(len(v))
	for _, g := range q.groups {
		if g.bitsLen != 1 {
			panic("mutation: ApplyRecursive supports only single-position factors")
		}
	}
	res := q.recurse(v, len(q.groups))
	copy(v, res)
}

// recurse returns Q(level)·v where level counts remaining factors; the
// factor consumed at each level is the highest-order remaining bit,
// matching the block structure of Eq. 8.
func (q *Process) recurse(v []float64, level int) []float64 {
	if level == 0 {
		out := make([]float64, 1)
		out[0] = v[0]
		return out
	}
	f := q.groups[level-1].f2
	half := len(v) / 2
	v1 := q.recurse(v[:half], level-1)
	v2 := q.recurse(v[half:], level-1)
	out := make([]float64, len(v))
	for i := 0; i < half; i++ {
		out[i] = f.A*v1[i] + f.B*v2[i]
		out[half+i] = f.C*v1[i] + f.D*v2[i]
	}
	return out
}

// ApplyDevice computes v ← Q·v on the device runtime with the blocked
// kernels: each fused stage-group is one LaunchStages dispatch (tiles and
// row groups are independent across the whole group), so a matvec costs
// O(log₂N / fuse) barriers instead of log₂N. With one worker it executes
// the serial blocked path bit-identically.
func (q *Process) ApplyDevice(d *device.Device, v []float64) {
	q.checkDim(len(v))
	q.applyDevice(d, v, nil, nil, nil)
}

// applyDevice is ApplyDevice on v ← src ⊙ scale when scale is non-nil, with
// ep fused into the last launch when non-nil; see apply.
func (q *Process) applyDevice(d *device.Device, v, src, scale []float64, ep *Epilogue) {
	sp := span.Begin(span.LayerMutation, KindApplyDevice)
	tb := TileBits()
	for i, s := range q.segs {
		if s.grp < 0 {
			applyStagesBlockedDevice(d, v, src, scale, s.off0, s.fs, tb, fuseStages, lastPass(ep, i == len(q.segs)-1))
			src, scale = nil, nil
		} else {
			q.applyGroupDevice(d, q.groups[s.grp], v)
		}
	}
	span.End(sp, int64(q.nu), 1)
}

// applyGroupSerial applies one Kronecker factor to v on the calling
// goroutine with one pass per stage.
func (q *Process) applyGroupSerial(g group, v []float64) {
	if g.bitsLen == 1 {
		stride := 1 << uint(g.offset)
		a, b, c, dd := g.f2.A, g.f2.B, g.f2.C, g.f2.D
		// Algorithm 1's two inner loops: blocks of 2·stride, pairs within.
		for j := 0; j < len(v); j += 2 * stride {
			for k := j; k < j+stride; k++ {
				t1, t2 := v[k], v[k+stride]
				v[k] = a*t1 + b*t2
				v[k+stride] = c*t1 + dd*t2
			}
		}
		return
	}
	// Grouped factor (Eq. 11): dense 2^g × 2^g matvec applied across the
	// strided gather of the group's bit positions. The gather/scatter
	// scratch lives on the Process so Apply stays allocation-free.
	size := 1 << uint(g.bitsLen)
	stride := 1 << uint(g.offset)
	lowMask := stride - 1
	nBases := len(v) >> uint(g.bitsLen)
	in := q.grpIn[:size]
	out := q.grpOut[:size]
	for b := 0; b < nBases; b++ {
		base := ((b &^ lowMask) << uint(g.bitsLen)) | (b & lowMask)
		for s := 0; s < size; s++ {
			in[s] = v[base|(s<<uint(g.offset))]
		}
		g.mat.MatVec(out, in)
		for s := 0; s < size; s++ {
			v[base|(s<<uint(g.offset))] = out[s]
		}
	}
}

// applyGroupDevice applies one grouped (or single-bit) Kronecker factor
// with a device kernel launch; single-bit factors on the blocked path
// never reach it, but mixed processes use it for their dense groups.
func (q *Process) applyGroupDevice(d *device.Device, g group, v []float64) {
	if g.bitsLen == 1 {
		q.applyGroupDeviceNaive(d, g, v)
		return
	}
	size := 1 << uint(g.bitsLen)
	stride := 1 << uint(g.offset)
	lowMask := stride - 1
	nBases := len(v) >> uint(g.bitsLen)
	d.LaunchRange(nBases, func(lo, hi int) {
		in := make([]float64, size)
		out := make([]float64, size)
		for b := lo; b < hi; b++ {
			base := ((b &^ lowMask) << uint(g.bitsLen)) | (b & lowMask)
			for s := 0; s < size; s++ {
				in[s] = v[base|(s<<uint(g.offset))]
			}
			g.mat.MatVec(out, in)
			for s := 0; s < size; s++ {
				v[base|(s<<uint(g.offset))] = out[s]
			}
		}
	})
}

// applyGroupDeviceNaive applies one Kronecker factor with one device
// launch per stage over the independent logical threads of the stage: the
// literal device-parallel kernel of Algorithm 2, with N/2 logical threads
// and the branch-free index computation j = 2·ID − (ID & (i−1)).
func (q *Process) applyGroupDeviceNaive(d *device.Device, g group, v []float64) {
	if g.bitsLen == 1 {
		stride := 1 << uint(g.offset)
		a, b, c, dd := g.f2.A, g.f2.B, g.f2.C, g.f2.D
		d.LaunchRange(len(v)/2, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				// Algorithm 2, line 3: j = 2·ID − (ID & (i−1)).
				j := 2*id - (id & (stride - 1))
				t1, t2 := v[j], v[j+stride]
				v[j] = a*t1 + b*t2
				v[j+stride] = c*t1 + dd*t2
			}
		})
		return
	}
	q.applyGroupDevice(d, g, v)
}

func (q *Process) checkDim(n int) {
	if n != q.n {
		panic(fmt.Sprintf("mutation: vector length %d does not match N = %d (ν = %d)", n, q.n, q.nu))
	}
}
