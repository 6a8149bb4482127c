package vec

import (
	"fmt"
	"math"
	"os"
)

// The 4-lane kernel set: the BLAS-1 work around every matvec — the power
// step's two passes (pass A is also the residual ‖w − λx‖ of every other
// solver), the dot of Dot, DotEach and device.Dot, the sum of squares of
// Norm2 and device.Norm2, the per-chunk AXPY of Combine, LanczosTail and
// the elementwise product of the butterfly tile pass — and the passes a
// sweep point makes around its solve: Scale, Norm1 and NormInf (the start's
// normalization and orientation), the concentration scan and clamp of
// core.Concentrations, and the fit ranking and write of core's extrapolated
// warm start — each with a Go body here and an AVX2 body in avx_amd64.s.
// Sum, which no solver runs, keeps the same order in a Go body only; the
// device reductions call these per chunk.
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

// Tier is a kernel tier: the widest SIMD bodies the kernels dispatch to.
type Tier int

const (
	// TierGo runs the Go bodies everywhere.
	TierGo Tier = iota
	// TierAVX2 runs the 4-lane YMM bodies of these kernels and of
	// internal/mutation's butterflies.
	TierAVX2
	// TierAVX512 runs the stochastic butterflies on 8-lane ZMM bodies
	// wherever their shape fills a register; everything else, these
	// kernels included, stays on AVX2.
	TierAVX512
)

// String returns the tier's manifest name: "go", "avx2" or "avx512".
func (t Tier) String() string {
	switch t {
	case TierAVX512:
		return "avx512"
	case TierAVX2:
		return "avx2"
	}
	return "go"
}

// The dispatch state: detectedTier is what the CPU and OS allow
// (avx_amd64.go), tier the active one, and useAVX2 the gate these kernels
// read.
var (
	noAVX2  = os.Getenv("QS_NOAVX2") != ""
	tier    = startTier()
	useAVX2 = tier >= TierAVX2
)

// startTier is the detected tier, or TierGo under QS_NOAVX2.
func startTier() Tier {
	if noAVX2 {
		return TierGo
	}
	return detectedTier
}

// SIMD reports the active kernel tier with the reason the next higher tier
// is off ("" at TierAVX512). It tells a host without the instruction set
// from an operator-forced Go run (QS_NOAVX2=1), the causes a run manifest
// must tell apart.
func SIMD() (Tier, string) {
	switch {
	case tier == TierAVX512:
		return tier, ""
	case tier == detectedTier && tier == TierAVX2:
		return tier, "cpu or OS lacks AVX-512"
	case tier == detectedTier:
		return tier, "cpu or build lacks AVX2"
	case tier == TierGo && noAVX2:
		return tier, "disabled by QS_NOAVX2"
	default:
		return tier, "lowered by SetTier"
	}
}

// UseAVX2 is the dispatch gate of the module's AVX2 kernels: CPUID and
// XGETBV report AVX2 with OS-enabled YMM state, and QS_NOAVX2 is unset.
func UseAVX2() bool { return useAVX2 }

// UseAVX512 is the dispatch gate of internal/mutation's ZMM butterflies:
// UseAVX2 holds, and CPUID and XGETBV report AVX512F with OS-enabled
// opmask and ZMM state.
func UseAVX512() bool { return tier == TierAVX512 }

// SetTier sets the active tier, capped at the detected one, and returns the
// previous tier. Tests use it to run every tier on one host; solver code
// never calls it.
func SetTier(t Tier) (was Tier) {
	was, tier = tier, min(t, detectedTier)
	useAVX2 = tier >= TierAVX2
	return was
}

// Tiers returns the tiers this host can run, fastest first: the detected
// tier and every tier below it.
func Tiers() []Tier {
	var ts []Tier
	for t := detectedTier; t >= TierGo; t-- {
		ts = append(ts, t)
	}
	return ts
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
	var s float64
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		s = avxNorm1(&x[0], n)
		x = x[n:]
	} else {
		var s0, s1, s2, s3 float64
		for len(x) >= 4 {
			s0 += math.Abs(x[0])
			s1 += math.Abs(x[1])
			s2 += math.Abs(x[2])
			s3 += math.Abs(x[3])
			x = x[4:]
		}
		s = ((s0 + s1) + s2) + s3
	}
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns ‖x‖∞ = max|xᵢ|, skipping NaN entries: device.NormInf's
// per-chunk max and the orientation of every solver's result. Max is
// associative and commutative, so the 4-lane split is exact, not just
// deterministic. The branch form keeps the running max out of math.Max,
// which is a call per element on amd64.
func NormInf(x []float64) float64 {
	var s float64
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		s = avxMaxAbs(&x[0], n)
		x = x[n:]
	} else {
		var s0, s1, s2, s3 float64
		for len(x) >= 4 {
			s0 = maxAbsStep(s0, x[0])
			s1 = maxAbsStep(s1, x[1])
			s2 = maxAbsStep(s2, x[2])
			s3 = maxAbsStep(s3, x[3])
			x = x[4:]
		}
		s = max(s0, s1, s2, s3)
	}
	for _, v := range x {
		s = maxAbsStep(s, v)
	}
	return s
}

// maxAbsStep is NormInf's per-element step: |v| replaces the running max
// s when it is larger, so a NaN v leaves s as it is.
func maxAbsStep(s, v float64) float64 {
	if a := math.Abs(v); a > s {
		return a
	}
	return s
}

// ConcentrationScan returns, in one read-only pass, what core.Concentrations
// checks before it writes: maxAbs = max|xᵢ| as NormInf computes it, least =
// min xᵢ with NaN entries skipped (+Inf when x has no other entry), and
// pos = Σ max(xᵢ, 0) in the 4-lane order. The clamp maps a negative entry
// to +0 and passes −0 and NaN through, so a NaN entry makes pos NaN. For an
// x without NaN, pos is bit for bit Norm1 of x with its negative entries
// set to zero: the clamped entries are non-negative and add to the same
// lanes in the same order.
func ConcentrationScan(x []float64) (maxAbs, least, pos float64) {
	inf := math.Inf(1)
	lanes := [3][4]float64{{}, {inf, inf, inf, inf}, {}}
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		avxConcentrationScan(&lanes, &x[0], n)
		x = x[n:]
	} else {
		m, l, s := &lanes[0], &lanes[1], &lanes[2]
		for len(x) >= 4 {
			m[0], l[0], s[0] = scanStep(m[0], l[0], s[0], x[0])
			m[1], l[1], s[1] = scanStep(m[1], l[1], s[1], x[1])
			m[2], l[2], s[2] = scanStep(m[2], l[2], s[2], x[2])
			m[3], l[3], s[3] = scanStep(m[3], l[3], s[3], x[3])
			x = x[4:]
		}
	}
	m, l, s := &lanes[0], &lanes[1], &lanes[2]
	maxAbs = max(m[0], m[1], m[2], m[3])
	least = min(l[0], l[1], l[2], l[3])
	pos = ((s[0] + s[1]) + s[2]) + s[3]
	for _, v := range x {
		maxAbs, least, pos = scanStep(maxAbs, least, pos, v)
	}
	return maxAbs, least, pos
}

// scanStep is ConcentrationScan's per-element step.
func scanStep(m, l, s, v float64) (float64, float64, float64) {
	if v < l {
		l = v
	}
	return maxAbsStep(m, v), l, s + clamp0(v)
}

// clamp0 maps a negative v to +0 and returns any other v, −0 and NaN
// included, unchanged.
func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// ClampScale sets xᵢ ← max(xᵢ, 0)·a with ConcentrationScan's clamp: the
// clamp-and-normalize write of core.Concentrations, one pass in place of
// zeroing the negatives and a Scale.
func ClampScale(x []float64, a float64) {
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		avxClampScale(&x[0], n, a)
		x = x[n:]
	}
	for i, v := range x {
		x[i] = clamp0(v) * a
	}
}

// FitErrors returns the squared errors of three fits f to x:
//
//	e₁ = Σ(xᵢ − h1ᵢ)²
//	e₂ = Σ(xᵢ − (w2₀·h1ᵢ + w2₁·h2ᵢ))²
//	e₃ = Σ(xᵢ − (w3₀·h1ᵢ + w3₁·h2ᵢ + w3₂·h3ᵢ))²
//
// each in the 4-lane order, every fit summed left to right and every
// product rounded before it is added (no FMA): the ranking pass of core's
// extrapolated warm start, which compares the plain, secant and quadratic
// predictions of x. It reads its operands and writes nothing. It panics if
// the lengths differ.
func FitErrors(x, h1, h2, h3 []float64, w2 [2]float64, w3 [3]float64) (e1, e2, e3 float64) {
	checkLen("FitErrors", len(x), len(h1))
	checkLen("FitErrors", len(x), len(h2))
	checkLen("FitErrors", len(x), len(h3))
	w := [5]float64{w2[0], w2[1], w3[0], w3[1], w3[2]}
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		e1, e2, e3 = avxFitErrors(&x[0], &h1[0], &h2[0], &h3[0], n, &w)
		x, h1, h2, h3 = x[n:], h1[n:], h2[n:], h3[n:]
	} else {
		var a, b, c [4]float64
		for len(x) >= 4 && len(h1) >= 4 && len(h2) >= 4 && len(h3) >= 4 {
			a[0], b[0], c[0] = fitStep(a[0], b[0], c[0], x[0], h1[0], h2[0], h3[0], &w)
			a[1], b[1], c[1] = fitStep(a[1], b[1], c[1], x[1], h1[1], h2[1], h3[1], &w)
			a[2], b[2], c[2] = fitStep(a[2], b[2], c[2], x[2], h1[2], h2[2], h3[2], &w)
			a[3], b[3], c[3] = fitStep(a[3], b[3], c[3], x[3], h1[3], h2[3], h3[3], &w)
			x, h1, h2, h3 = x[4:], h1[4:], h2[4:], h3[4:]
		}
		e1 = ((a[0] + a[1]) + a[2]) + a[3]
		e2 = ((b[0] + b[1]) + b[2]) + b[3]
		e3 = ((c[0] + c[1]) + c[2]) + c[3]
	}
	for len(x) > 0 && len(h1) > 0 && len(h2) > 0 && len(h3) > 0 {
		e1, e2, e3 = fitStep(e1, e2, e3, x[0], h1[0], h2[0], h3[0], &w)
		x, h1, h2, h3 = x[1:], h1[1:], h2[1:], h3[1:]
	}
	return e1, e2, e3
}

// fitStep adds one element's three squared fit errors to e1, e2, e3.
func fitStep(e1, e2, e3, a, b1, b2, b3 float64, w *[5]float64) (float64, float64, float64) {
	d1 := a - b1
	d2 := a - (float64(w[0]*b1) + float64(w[1]*b2))
	d3 := a - (float64(w[2]*b1) + float64(w[3]*b2) + float64(w[4]*b3))
	return e1 + float64(d1*d1), e2 + float64(d2*d2), e3 + float64(d3*d3)
}

// Extrapolate overwrites x with the combination of its k ∈ {2, 3, 4}
// operands
//
//	xᵢ ← l₀·xᵢ + l₁·h1ᵢ (+ l₂·h2ᵢ when k ≥ 3) (+ l₃·h3ᵢ when k = 4)
//
// summed left to right with every product rounded (no FMA), and stores the
// old xᵢ in h3ᵢ, in one pass: the write of core's extrapolated warm start.
// Each element of h3 is read before it is overwritten, so the k = 4 fit
// takes h3's old entries. It panics if the lengths differ or k is outside
// 2 … 4.
func Extrapolate(x, h1, h2, h3 []float64, l [4]float64, k int) {
	checkLen("Extrapolate", len(x), len(h1))
	checkLen("Extrapolate", len(x), len(h2))
	checkLen("Extrapolate", len(x), len(h3))
	if k < 2 || k > 4 {
		panic(fmt.Sprintf("vec: Extrapolate of order %d", k))
	}
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		avxExtrapolate(&x[0], &h1[0], &h2[0], &h3[0], n, k, &l)
		x, h1, h2, h3 = x[n:], h1[n:], h2[n:], h3[n:]
	}
	switch k {
	case 2:
		for len(x) > 0 && len(h1) > 0 && len(h3) > 0 {
			a := x[0]
			x[0] = float64(l[0]*a) + float64(l[1]*h1[0])
			h3[0] = a
			x, h1, h3 = x[1:], h1[1:], h3[1:]
		}
	case 3:
		for len(x) > 0 && len(h1) > 0 && len(h2) > 0 && len(h3) > 0 {
			a := x[0]
			x[0] = float64(l[0]*a) + float64(l[1]*h1[0]) + float64(l[2]*h2[0])
			h3[0] = a
			x, h1, h2, h3 = x[1:], h1[1:], h2[1:], h3[1:]
		}
	default:
		for len(x) > 0 && len(h1) > 0 && len(h2) > 0 && len(h3) > 0 {
			a := x[0]
			x[0] = float64(l[0]*a) + float64(l[1]*h1[0]) + float64(l[2]*h2[0]) + float64(l[3]*h3[0])
			h3[0] = a
			x, h1, h2, h3 = x[1:], h1[1:], h2[1:], h3[1:]
		}
	}
}

// Scale multiplies x by a in place.
func Scale(x []float64, a float64) {
	if n := len(x) &^ 3; useAVX2 && n > 0 {
		avxScale(&x[0], n, a)
		x = x[n:]
	}
	for i := range x {
		x[i] *= a
	}
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
