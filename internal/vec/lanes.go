package vec

import "math"

// The 4-lane kernel set: the BLAS-1 work around every matvec — the power
// step's two passes (pass A is also the residual ‖w − λx‖ of every other
// solver), the dot of Dot, DotEach and device.Dot, the sum of squares of
// Norm2 and device.Norm2, the per-chunk AXPY of Combine, LanczosTail and
// the elementwise product of the butterfly tile pass — each with a Go body
// here and an AVX2 body in avx_amd64.s. Sum, Norm1 and NormInf, which no
// iteration runs, keep the same order in Go bodies only; the device
// reductions call them per chunk.
//
// SUMMATION ORDER (the reduction contract): a sum over a slice is
// accumulated in four lanes, lane ℓ ∈ {0,1,2,3} summing elements ℓ, ℓ+4,
// ℓ+8, …; the lanes combine as ((s0+s1)+s2)+s3, and the ≤ 3 tail elements
// fold onto that in index order. Every dot, norm and residual in the module
// sums in this order; there is no strict left fold and no scaled loop
// outside NormFromSumSq's range fallback. The device reductions apply it to
// each chunk of their partition and add the chunk partials in ascending
// chunk order, so a 1-worker Device, whose partition is one chunk, computes
// exactly what the serial call computes.
//
// The AVX2 bodies hold the four lanes of a sum in one YMM register and use
// only VMULPD, VADDPD and VSUBPD, which round each lane exactly like the
// scalar MULSD, ADDSD and SUBSD; neither the assembly nor gc (on amd64, at
// any GOAMD64 level) emits an FMA. Every AVX2 body is therefore
// bit-identical to its Go body (TestAVX2KernelsBitIdenticalToGo). A kernel
// hands the 4-aligned prefix of its operands to the assembly and folds the
// ≤ 3 trailing elements in Go; the Go bodies are slice-advance loops the
// prover clears of bounds checks (scripts/check_bce.sh).

// AVX2 reports whether the AVX2 kernels — these and internal/mutation's
// butterflies — are active for this process, with the reason when they are
// not ("" when active). It tells a host without the instruction set from an
// operator-forced Go run (QS_NOAVX2=1), the two causes a run manifest must
// tell apart.
func AVX2() (active bool, reason string) {
	switch {
	case useAVX2:
		return true, ""
	case !avx2Detected:
		return false, "cpu or build lacks AVX2"
	default:
		return false, "disabled by QS_NOAVX2"
	}
}

// UseAVX2 is the one dispatch gate of the module's AVX2 kernels: CPUID and
// XGETBV report AVX2 with OS-enabled YMM state, and QS_NOAVX2 is unset.
func UseAVX2() bool { return useAVX2 }

// SetAVX2 sets the dispatch gate, which can only be on where AVX2 was
// detected, and returns its previous value. Tests use it to run both kernel
// paths on one host; solver code never calls it.
func SetAVX2(on bool) (was bool) {
	was, useAVX2 = useAVX2, on && avx2Detected
	return was
}

// DotLanes returns Σ x[k]·y[k] over the common prefix of x and y in the
// 4-lane order: the per-chunk dot of DotEach and device.Dot.
func DotLanes(x, y []float64) float64 {
	var s float64
	if n := min(len(x), len(y)) &^ 3; useAVX2 && n > 0 {
		s = avxDot(&x[0], &y[0], n)
		x, y = x[n:], y[n:]
	} else {
		var s0, s1, s2, s3 float64
		for len(x) >= 4 && len(y) >= 4 {
			s0 += x[0] * y[0]
			s1 += x[1] * y[1]
			s2 += x[2] * y[2]
			s3 += x[3] * y[3]
			x, y = x[4:], y[4:]
		}
		s = ((s0 + s1) + s2) + s3
	}
	for len(x) > 0 && len(y) > 0 {
		s += x[0] * y[0]
		x, y = x[1:], y[1:]
	}
	return s
}

// ShiftedDotSumSq returns x·t and Σt², each in the 4-lane order, for
// t = w − µ·x over the common prefix of x and w, reading both and writing
// neither: pass A of the power step (ShiftedDotNorm2) before its range
// check. t is formed as AXPY forms it, w + (−µ)·x; µ = 0 reads t = w, as a
// power step without a shift skips the AXPY.
func ShiftedDotSumSq(x, w []float64, mu float64) (dot, ssq float64) {
	a := -mu
	if n := min(len(x), len(w)) &^ 3; useAVX2 && n > 0 {
		dot, ssq = avxShiftedDotSumSq(&x[0], &w[0], n, a)
		x, w = x[n:], w[n:]
	} else {
		var d0, d1, d2, d3, q0, q1, q2, q3 float64
		if a == 0 {
			for len(x) >= 4 && len(w) >= 4 {
				t0, t1, t2, t3 := w[0], w[1], w[2], w[3]
				d0 += x[0] * t0
				d1 += x[1] * t1
				d2 += x[2] * t2
				d3 += x[3] * t3
				q0 += t0 * t0
				q1 += t1 * t1
				q2 += t2 * t2
				q3 += t3 * t3
				x, w = x[4:], w[4:]
			}
		} else {
			for len(x) >= 4 && len(w) >= 4 {
				t0 := w[0] + a*x[0]
				t1 := w[1] + a*x[1]
				t2 := w[2] + a*x[2]
				t3 := w[3] + a*x[3]
				d0 += x[0] * t0
				d1 += x[1] * t1
				d2 += x[2] * t2
				d3 += x[3] * t3
				q0 += t0 * t0
				q1 += t1 * t1
				q2 += t2 * t2
				q3 += t3 * t3
				x, w = x[4:], w[4:]
			}
		}
		dot = ((d0 + d1) + d2) + d3
		ssq = ((q0 + q1) + q2) + q3
	}
	for len(x) > 0 && len(w) > 0 {
		t := w[0]
		if a != 0 {
			t += a * x[0]
		}
		dot += x[0] * t
		ssq += t * t
		x, w = x[1:], w[1:]
	}
	return dot, ssq
}

// ShiftedResidualSumSq returns Σ(t − λ·x)² in the 4-lane order for
// t = w − µ·x over the common prefix of x and w, and overwrites w ← c·t in
// the same pass: pass B of the power step (ShiftedResidualScale) before its
// square root. t is formed as in ShiftedDotSumSq.
func ShiftedResidualSumSq(x, w []float64, mu, lambda, c float64) float64 {
	a := -mu
	var s float64
	if n := min(len(x), len(w)) &^ 3; useAVX2 && n > 0 {
		s = avxShiftedResidualSumSq(&x[0], &w[0], n, a, lambda, c)
		x, w = x[n:], w[n:]
	} else {
		var s0, s1, s2, s3 float64
		if a == 0 {
			for len(x) >= 4 && len(w) >= 4 {
				t0, t1, t2, t3 := w[0], w[1], w[2], w[3]
				r0 := t0 - lambda*x[0]
				r1 := t1 - lambda*x[1]
				r2 := t2 - lambda*x[2]
				r3 := t3 - lambda*x[3]
				s0 += r0 * r0
				s1 += r1 * r1
				s2 += r2 * r2
				s3 += r3 * r3
				w[0], w[1], w[2], w[3] = t0*c, t1*c, t2*c, t3*c
				x, w = x[4:], w[4:]
			}
		} else {
			for len(x) >= 4 && len(w) >= 4 {
				t0 := w[0] + a*x[0]
				t1 := w[1] + a*x[1]
				t2 := w[2] + a*x[2]
				t3 := w[3] + a*x[3]
				r0 := t0 - lambda*x[0]
				r1 := t1 - lambda*x[1]
				r2 := t2 - lambda*x[2]
				r3 := t3 - lambda*x[3]
				s0 += r0 * r0
				s1 += r1 * r1
				s2 += r2 * r2
				s3 += r3 * r3
				w[0], w[1], w[2], w[3] = t0*c, t1*c, t2*c, t3*c
				x, w = x[4:], w[4:]
			}
		}
		s = ((s0 + s1) + s2) + s3
	}
	for len(x) > 0 && len(w) > 0 {
		t := w[0]
		if a != 0 {
			t += a * x[0]
		}
		r := t - lambda*x[0]
		s += r * r
		w[0] = t * c
		x, w = x[1:], w[1:]
	}
	return s
}

// LanczosTail is the fused vector tail of one Lanczos step: it writes
// dst ← c·w − α·v − β·u and returns Σdstᵢ² of the result from the same
// pass. dst may alias w; a nil u drops the β term (the first step). Each
// element is t = ((c·w) − α·v) − β·u, so with c = 1 it is updated as
// AXPY(−α, v, w) followed by AXPY(−β, u, w) would update it; the sum of
// squares is unscaled, in the 4-lane order, so a caller that needs the full
// floating-point range passes it through NormFromSumSq.
func LanczosTail(dst, w, v, u []float64, c, alpha, beta float64) float64 {
	checkLen("LanczosTail", len(dst), len(w))
	checkLen("LanczosTail", len(w), len(v))
	if u == nil {
		u, beta = v, 0
	}
	checkLen("LanczosTail", len(w), len(u))
	var s float64
	if n := min(len(w), len(v), len(u)) &^ 3; useAVX2 && n > 0 {
		s = avxLanczosTail(&dst[0], &w[0], &v[0], &u[0], n, c, alpha, beta)
		dst, w, v, u = dst[n:], w[n:], v[n:], u[n:]
	} else {
		var s0, s1, s2, s3 float64
		for len(dst) >= 4 && len(w) >= 4 && len(v) >= 4 && len(u) >= 4 {
			t0 := c*w[0] - alpha*v[0] - beta*u[0]
			t1 := c*w[1] - alpha*v[1] - beta*u[1]
			t2 := c*w[2] - alpha*v[2] - beta*u[2]
			t3 := c*w[3] - alpha*v[3] - beta*u[3]
			dst[0], dst[1], dst[2], dst[3] = t0, t1, t2, t3
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
			dst, w, v, u = dst[4:], w[4:], v[4:], u[4:]
		}
		s = ((s0 + s1) + s2) + s3
	}
	for len(dst) > 0 && len(w) > 0 && len(v) > 0 && len(u) > 0 {
		t := c*w[0] - alpha*v[0] - beta*u[0]
		dst[0] = t
		s += t * t
		dst, w, v, u = dst[1:], w[1:], v[1:], u[1:]
	}
	return s
}

// SumSq returns Σxᵢ² in the 4-lane order, unscaled: Norm2's sum before its
// range check, and device.Norm2's per-chunk sum.
func SumSq(x []float64) float64 {
	var lanes [4]float64
	sumSqLanes(&lanes, x)
	return foldSq(&lanes, x[len(x)&^3:])
}

// Sum returns Σxᵢ in the 4-lane order: device.Sum's per-chunk sum.
func Sum(x []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		s0 += x[0]
		s1 += x[1]
		s2 += x[2]
		s3 += x[3]
		x = x[4:]
	}
	s := ((s0 + s1) + s2) + s3
	for _, v := range x {
		s += v
	}
	return s
}

// Norm1 returns ‖x‖₁ = Σ|xᵢ| in the 4-lane order: Normalize1's norm and
// device.Norm1's per-chunk sum.
func Norm1(x []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		s0 += math.Abs(x[0])
		s1 += math.Abs(x[1])
		s2 += math.Abs(x[2])
		s3 += math.Abs(x[3])
		x = x[4:]
	}
	s := ((s0 + s1) + s2) + s3
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns ‖x‖∞ = max|xᵢ|, skipping NaN entries: device.NormInf's
// per-chunk max. Max is associative and commutative, so the 4-lane split
// is exact, not just deterministic. The branch form keeps the running max
// out of math.Max, which is a call per element on amd64.
func NormInf(x []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		if a := math.Abs(x[0]); a > s0 {
			s0 = a
		}
		if a := math.Abs(x[1]); a > s1 {
			s1 = a
		}
		if a := math.Abs(x[2]); a > s2 {
			s2 = a
		}
		if a := math.Abs(x[3]); a > s3 {
			s3 = a
		}
		x = x[4:]
	}
	s := max(s0, s1, s2, s3)
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// foldSq combines the four lane sums of squares in acc and folds the
// squares of the ≤ 3 tail elements onto them in index order.
func foldSq(acc *[4]float64, tail []float64) float64 {
	s := ((acc[0] + acc[1]) + acc[2]) + acc[3]
	for _, x := range tail {
		s += x * x
	}
	return s
}

// sumSqLanes adds the squares of the 4-aligned prefix of x to the four
// lane sums in acc, lane ℓ taking elements ℓ, ℓ+4, …: SumSq's, and
// Combine's, whose lanes run on across its chunks.
func sumSqLanes(acc *[4]float64, x []float64) {
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		avxSumSqLanes(acc, &x[0], n)
		return
	}
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	for len(x) >= 4 {
		s0 += x[0] * x[0]
		s1 += x[1] * x[1]
		s2 += x[2] * x[2]
		s3 += x[3] * x[3]
		x = x[4:]
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

// axpy is AXPY's per-element update y ← y + a·x over the common prefix of
// x and y.
func axpy(a float64, x, y []float64) {
	if n := min(len(x), len(y)) &^ 3; useAVX2 && n > 0 {
		avxAXPY(a, &x[0], &y[0], n)
		x, y = x[n:], y[n:]
	}
	for len(x) >= 4 && len(y) >= 4 {
		y[0] += a * x[0]
		y[1] += a * x[1]
		y[2] += a * x[2]
		y[3] += a * x[3]
		x, y = x[4:], y[4:]
	}
	for len(x) > 0 && len(y) > 0 {
		y[0] += a * x[0]
		x, y = x[1:], y[1:]
	}
}

// Mul computes dst ← x ⊙ y elementwise, the butterfly tile pass's fitness
// pre-scale and its epilogue's post-scale among others. dst may alias x or
// y. It panics if the lengths differ.
func Mul(dst, x, y []float64) {
	checkLen("Mul", len(x), len(y))
	checkLen("Mul", len(dst), len(x))
	if n := min(len(dst), len(x), len(y)) &^ 3; useAVX2 && n > 0 {
		avxMul(&dst[0], &x[0], &y[0], n)
		dst, x, y = dst[n:], x[n:], y[n:]
	}
	for len(dst) >= 4 && len(x) >= 4 && len(y) >= 4 {
		dst[0] = x[0] * y[0]
		dst[1] = x[1] * y[1]
		dst[2] = x[2] * y[2]
		dst[3] = x[3] * y[3]
		dst, x, y = dst[4:], x[4:], y[4:]
	}
	for len(dst) > 0 && len(x) > 0 && len(y) > 0 {
		dst[0] = x[0] * y[0]
		dst, x, y = dst[1:], x[1:], y[1:]
	}
}
