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
// would pay an indirect call per element. Dot, Norm2,
// ResidualNorm2 and the two power passes reduce over vec's 4-lane kernels
// (vec.DotLanes, vec.SumSq, vec.ShiftedDotSumSq, vec.ShiftedResidualSumSq),
// with their AVX2 bodies; Sum, Norm1 and NormInf over vec.Sum, vec.Norm1
// and vec.NormInf, bounds-check-eliminated Go loops in the same order.
//
// SUMMATION ORDER: every reduction splits [0, n) into the device's chunks,
// sums each chunk in the 4-lane order of vec's reduction contract
// (internal/vec/lanes.go) and combines the chunk partials in ascending
// chunk order. The result is therefore a pure function of (operands, n,
// chunk size): bit-identical across runs and across schedules for a fixed
// Device, independent of which worker executes which chunk, and on a
// 1-worker Device (one chunk) bit-identical to the serial vec kernel: a
// serial dot, sum, norm or residual equals a 1-worker device one. More chunks
// regroup the sum at chunk boundaries, an O(ε·Σ|xᵢyᵢ|) difference the
// solver tolerances (≥1e-9) absorb; tests pin the fixed-schedule
// bit-identity.

// reduceChunks reduces chunkFn, which returns two independent partials per
// chunk, over the device's chunk partition of [0, n): each component is
// folded from identity with combine in ascending chunk order. The partials
// live in the launch's own batch, so a reduction allocates no more than a
// LaunchRange.
func (d *Device) reduceChunks(n int, identity float64, chunkFn func(lo, hi int) (float64, float64), combine func(a, b float64) float64) (float64, float64) {
	if n <= 0 {
		return identity, identity
	}
	d.reduceLaunches.Add(1)
	chunk, nchunks := d.plan(n, d.grain)
	if nchunks == 1 || d.workers == 1 {
		a, b := chunkFn(0, n)
		return combine(identity, a), combine(identity, b)
	}
	sums := d.run(LaunchKindReduce, launch{reduce: chunkFn, n: n, chunk: chunk, nchunks: nchunks})
	a, b := identity, identity
	for _, s := range sums {
		a, b = combine(a, s[0]), combine(b, s[1])
	}
	return a, b
}

func addf(a, b float64) float64 { return a + b }

// chunk2 returns the [lo, hi) chunk of two equal-length operands.
func chunk2(x, y []float64, lo, hi int) ([]float64, []float64) {
	return x[lo:hi], y[lo:hi]
}

// Dot returns xᵀy computed with a parallel reduction.
func (d *Device) Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("device: Dot length mismatch")
	}
	s, _ := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		return vec.DotLanes(chunk2(x, y, lo, hi)), 0
	}, addf)
	return s
}

// Sum returns Σ xᵢ computed with a parallel reduction.
func (d *Device) Sum(x []float64) float64 {
	s, _ := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		return vec.Sum(x[lo:hi]), 0
	}, addf)
	return s
}

// Norm1 returns ‖x‖₁ computed with a parallel reduction.
func (d *Device) Norm1(x []float64) float64 {
	s, _ := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		return vec.Norm1(x[lo:hi]), 0
	}, addf)
	return s
}

// Norm2 returns ‖x‖₂ computed with a parallel reduction over vec.SumSq. A
// sum that leaves [2⁻⁹⁰⁰, 2⁹⁰⁰] is recomputed scaled (vec.NormFromSumSq), so
// it neither over- nor underflows.
func (d *Device) Norm2(x []float64) float64 {
	s, _ := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		return vec.SumSq(x[lo:hi]), 0
	}, addf)
	return vec.NormFromSumSq(s, nil, x, 0)
}

// NormInf returns ‖x‖∞ computed with a parallel max-reduction; NaN
// entries are skipped, as in vec.NormInf.
func (d *Device) NormInf(x []float64) float64 {
	s, _ := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		return vec.NormInf(x[lo:hi]), 0
	}, math.Max)
	return s
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
// w) (skipped for µ = 0) followed by Dot(x, w) and Norm2(w).
func (d *Device) ShiftedDotNorm2(x, w []float64, mu float64) (dot, norm float64) {
	if len(x) != len(w) {
		panic("device: ShiftedDotNorm2 length mismatch")
	}
	dot, sq := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		xs, ws := chunk2(x, w, lo, hi)
		return vec.ShiftedDotSumSq(xs, ws, mu)
	}, addf)
	return dot, vec.NormFromSumSq(sq, x, w, mu)
}

// ShiftedResidualScale is pass B of the fused power step: for t = w − µ·x
// it returns ‖t − λ·x‖₂ and overwrites w ← c·t in the same pass,
// bit-identical to AXPY(−µ, x, w) (skipped for µ = 0), ResidualNorm2(w, x,
// λ) and Scale(w, c).
func (d *Device) ShiftedResidualScale(x, w []float64, mu, lambda, c float64) float64 {
	if len(x) != len(w) {
		panic("device: ShiftedResidualScale length mismatch")
	}
	s, _ := d.reduceChunks(len(x), 0, func(lo, hi int) (float64, float64) {
		xs, ws := chunk2(x, w, lo, hi)
		return vec.ShiftedResidualSumSq(xs, ws, mu, lambda, c), 0
	}, addf)
	return math.Sqrt(s)
}

// Scale multiplies x by a in place, vec.Scale on each chunk of the
// partition. Each element gets the same single multiply, so results are
// bit-identical to the serial call.
func (d *Device) Scale(x []float64, a float64) {
	d.LaunchRange(len(x), func(lo, hi int) {
		vec.Scale(x[lo:hi], a)
	})
}

// AXPY computes y ← a·x + y in place with a parallel kernel. Element-wise,
// so the unroll is bit-identical to the scalar loop.
func (d *Device) AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("device: AXPY length mismatch")
	}
	d.LaunchRange(len(x), func(lo, hi int) {
		xs, ys := x[lo:hi], y[lo:hi]
		for len(xs) >= 4 && len(ys) >= 4 {
			ys[0] += a * xs[0]
			ys[1] += a * xs[1]
			ys[2] += a * xs[2]
			ys[3] += a * xs[3]
			xs, ys = xs[4:], ys[4:]
		}
		for len(xs) > 0 && len(ys) > 0 {
			ys[0] += a * xs[0]
			xs, ys = xs[1:], ys[1:]
		}
	})
}

// Copy copies src into dst with a parallel kernel.
func (d *Device) Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("device: Copy length mismatch")
	}
	d.LaunchRange(len(dst), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Mul computes dst ← x ⊙ y elementwise with a parallel kernel.
// dst may alias x or y.
func (d *Device) Mul(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("device: Mul length mismatch")
	}
	d.LaunchRange(len(dst), func(lo, hi int) {
		ds, xs, ys := dst[lo:hi], x[lo:hi], y[lo:hi]
		for len(ds) >= 4 && len(xs) >= 4 && len(ys) >= 4 {
			ds[0] = xs[0] * ys[0]
			ds[1] = xs[1] * ys[1]
			ds[2] = xs[2] * ys[2]
			ds[3] = xs[3] * ys[3]
			ds, xs, ys = ds[4:], xs[4:], ys[4:]
		}
		for len(ds) > 0 && len(xs) > 0 && len(ys) > 0 {
			ds[0] = xs[0] * ys[0]
			ds, xs, ys = ds[1:], xs[1:], ys[1:]
		}
	})
}
