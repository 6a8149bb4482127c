package device

import (
	"math"

	"repro/internal/vec"
)

// This file provides the device-parallel twins of the internal/vec kernels.
// The paper (Section 4) expects the vector summations to have "almost no
// influence on the overall execution time". Measured here they have a
// large one. With the blocked butterflies each BLAS-1 call is a full-vector
// stream like a butterfly pass: a CPU profile of ν = 20 power solves on two
// workers put 52% of the time in the vector work around the matvec (x⊙f,
// shift, Rayleigh quotient, residual, norm, normalize) against 37% in the
// butterfly, so the power iteration runs its vector tail as two fused
// passes, ShiftedDotNorm2 and ShiftedResidualScale (DESIGN.md §5.10). With
// the butterflies on AVX2 the passes were the larger cost of small solves
// too: serial ν = 12 power sweeps spent 55–60% of their CPU in the two
// passes against 37–40% in the operator while the pass bodies were scalar
// Go, and 19–21% against 72–73% on vec's AVX2 kernels (DESIGN.md §5.6).
//
// They sit inside every power/Lanczos iteration, so they are written to the
// same kernel-floor discipline as the butterfly stages (see DESIGN.md §5.6):
// each launch dispatches CHUNK bodies, not per-element closures, which
// would pay an indirect call per element. Dot, Norm2, ResidualNorm2 and the
// two power passes reduce over vec's 4-lane kernels (vec.DotLanes,
// vec.SumSq, vec.ShiftedDotSumSq, vec.ShiftedResidualSumSq), with their
// AVX2 bodies.
//
// SUMMATION ORDER: a reduction's bits depend only on its operands and
// their length. Every reduction splits [0, n) into the vec.ReduceChunk
// (2^17-element) pieces of vec's reduction contract (internal/vec/lanes.go),
// one launch chunk per piece whatever the worker count, sums each in the
// 4-lane order and adds the piece partials in ascending order, exactly as
// the serial vec call walks them. So a reduction returns the serial bits on
// every Device, independent of which worker executes which piece. With one
// piece (ν ≤ 17), one worker or a nil receiver it is the serial vec call on
// the caller, without a launch; a nil *Device is the serial device of every
// method in this file, and those calls return before any closure is built,
// so the serial path allocates nothing. The elementwise kernels keep the
// device's grain/worker plan, since each element gets the same operations
// in any partition.

// serial reports whether a reduction over n elements runs as the serial vec
// call: on a nil or 1-worker Device, or over a single vec.ReduceChunk
// piece.
func (d *Device) serial(n int) bool {
	return d == nil || d.workers == 1 || n <= vec.ReduceChunk
}

// reduceChunks reduces chunkFn, which returns two independent partials per
// vec.ReduceChunk piece of [0, n), in one launch, and adds the partials of
// each component in ascending piece order, the first one seeding the sum.
// n must span more than one piece (serial(n) is false). The partials live
// in the launch's own batch, so a reduction allocates no more than a
// LaunchRange.
func (d *Device) reduceChunks(n int, chunkFn func(lo, hi int) (float64, float64)) (a, b float64) {
	const chunk = vec.ReduceChunk
	sums := d.run(LaunchKindReduce, launch{reduce: chunkFn, n: n, chunk: chunk, nchunks: (n + chunk - 1) / chunk})
	for c, s := range sums {
		if c == 0 {
			a, b = s[0], s[1]
			continue
		}
		a, b = a+s[0], b+s[1]
	}
	return a, b
}

// chunk2 returns the [lo, hi) chunk of two equal-length operands.
func chunk2(x, y []float64, lo, hi int) ([]float64, []float64) {
	return x[lo:hi], y[lo:hi]
}

// Dot returns xᵀy, bit-identical to vec.Dot.
func (d *Device) Dot(x, y []float64) float64 {
	if d.serial(len(x)) {
		return vec.Dot(x, y)
	}
	if len(x) != len(y) {
		panic("device: Dot length mismatch")
	}
	s, _ := d.reduceChunks(len(x), func(lo, hi int) (float64, float64) {
		return vec.DotLanes(chunk2(x, y, lo, hi)), 0
	})
	return s
}

// Norm2 returns ‖x‖₂, bit-identical to vec.Norm2: a sum that leaves
// [2⁻⁹⁰⁰, 2⁹⁰⁰] is recomputed scaled (vec.NormFromSumSq), so it neither
// over- nor underflows.
func (d *Device) Norm2(x []float64) float64 {
	if d.serial(len(x)) {
		return vec.Norm2(x)
	}
	s, _ := d.reduceChunks(len(x), func(lo, hi int) (float64, float64) {
		return vec.SumSq(x[lo:hi]), 0
	})
	return vec.NormFromSumSq(s, nil, x, 0)
}

// ResidualNorm2 returns ‖w − λx‖₂, the power-iteration residual
// R(λ̃, x̃) of the paper, in one read-only parallel pass: pass A's norm with
// µ = λ, whose t = w + (−λ)·x is w − λ·x bit for bit.
func (d *Device) ResidualNorm2(w, x []float64, lambda float64) float64 {
	_, r := d.ShiftedDotNorm2(x, w, lambda)
	return r
}

// The two passes of the fused power step (DESIGN.md §5.10). Both read the
// shifted product t = w − µ·x on the fly instead of materializing it: the
// power iteration used to run AXPY (w ← w − µx), Dot, ResidualNorm2, Norm2
// and a normalize launch, five streams over the vectors per iteration; the
// passes cover the same arithmetic in two. Each accumulator sees exactly the
// operations, in exactly the order, of the kernel it replaces — the same
// chunk plan, the same 4-lane split, the same ascending partial combine, the
// same range check — so the results are bit-identical to the unfused
// sequence. µ = 0 reads t = w without forming w + 0·x, as the unfused
// sequence skips the AXPY.

// ShiftedDotNorm2 is pass A of the fused power step: for t = w − µ·x it
// returns x·t and ‖t‖₂ in one read-only pass, bit-identical to AXPY(−µ, x,
// w) (skipped for µ = 0) followed by Dot(x, w) and Norm2(w), and to
// vec.ShiftedDotNorm2.
func (d *Device) ShiftedDotNorm2(x, w []float64, mu float64) (dot, norm float64) {
	if d.serial(len(x)) {
		return vec.ShiftedDotNorm2(x, w, mu)
	}
	if len(x) != len(w) {
		panic("device: ShiftedDotNorm2 length mismatch")
	}
	dot, sq := d.reduceChunks(len(x), func(lo, hi int) (float64, float64) {
		xs, ws := chunk2(x, w, lo, hi)
		return vec.ShiftedDotSumSq(xs, ws, mu)
	})
	return dot, vec.NormFromSumSq(sq, x, w, mu)
}

// ShiftedResidualScale is pass B of the fused power step: for t = w − µ·x
// it returns ‖t − λ·x‖₂ and overwrites w ← c·t in the same pass,
// bit-identical to AXPY(−µ, x, w) (skipped for µ = 0), ResidualNorm2(w, x,
// λ) and Scale(w, c), and to vec.ShiftedResidualScale.
func (d *Device) ShiftedResidualScale(x, w []float64, mu, lambda, c float64) float64 {
	if d.serial(len(x)) {
		return vec.ShiftedResidualScale(x, w, mu, lambda, c)
	}
	if len(x) != len(w) {
		panic("device: ShiftedResidualScale length mismatch")
	}
	s, _ := d.reduceChunks(len(x), func(lo, hi int) (float64, float64) {
		xs, ws := chunk2(x, w, lo, hi)
		return vec.ShiftedResidualSumSq(xs, ws, mu, lambda, c), 0
	})
	return math.Sqrt(s)
}

// Scale multiplies x by a in place, vec.Scale on each chunk of the
// partition. Each element gets the same single multiply, so results are
// bit-identical to the serial call.
func (d *Device) Scale(x []float64, a float64) {
	if d == nil {
		vec.Scale(x, a)
		return
	}
	d.LaunchRange(len(x), func(lo, hi int) {
		vec.Scale(x[lo:hi], a)
	})
}

// AXPY computes y ← a·x + y in place, vec.AXPY on each chunk.
func (d *Device) AXPY(a float64, x, y []float64) {
	if d == nil {
		vec.AXPY(a, x, y)
		return
	}
	if len(x) != len(y) {
		panic("device: AXPY length mismatch")
	}
	d.LaunchRange(len(x), func(lo, hi int) {
		vec.AXPY(a, x[lo:hi], y[lo:hi])
	})
}

// Copy copies src into dst, one copy per chunk.
func (d *Device) Copy(dst, src []float64) {
	if d == nil {
		vec.Copy(dst, src)
		return
	}
	if len(dst) != len(src) {
		panic("device: Copy length mismatch")
	}
	d.LaunchRange(len(dst), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Mul computes dst ← x ⊙ y elementwise, vec.Mul on each chunk. dst may
// alias x or y.
func (d *Device) Mul(dst, x, y []float64) {
	if d == nil {
		vec.Mul(dst, x, y)
		return
	}
	if len(x) != len(y) || len(dst) != len(x) {
		panic("device: Mul length mismatch")
	}
	d.LaunchRange(len(dst), func(lo, hi int) {
		vec.Mul(dst[lo:hi], x[lo:hi], y[lo:hi])
	})
}
