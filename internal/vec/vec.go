// Package vec provides the dense-vector kernels used throughout the
// solver: dot products, norms, scaled updates and compensated summation.
// All functions operate on []float64 in place where possible, since the
// quasispecies state vectors have N = 2^ν entries and every avoidable copy
// matters at large chain lengths.
//
// Serial implementations live in this file; parallel twins driven by the
// device runtime are provided by the device package so that this package
// stays dependency-free and trivially testable.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the Euclidean inner product xᵀy. It panics if the lengths
// differ.
func Dot(x, y []float64) float64 {
	checkLen("Dot", len(x), len(y))
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// DotKahan returns xᵀy using Kahan–Babuška compensated accumulation.
// At N = 2^25 entries the plain left-to-right sum can lose several digits;
// residual-based stopping tests with τ = 1e−15 need the compensated form.
func DotKahan(x, y []float64) float64 {
	checkLen("DotKahan", len(x), len(y))
	var s, c float64
	for i, xv := range x {
		t := xv*y[i] - c
		u := s + t
		c = (u - s) - t
		s = u
	}
	return s
}

// Sum returns the plain sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// SumKahan returns the compensated sum of the entries of x.
func SumKahan(x []float64) float64 {
	var s, c float64
	for _, v := range x {
		t := v - c
		u := s + t
		c = (u - s) - t
		s = u
	}
	return s
}

// SumPairwise returns the sum of x using recursive pairwise splitting,
// which has O(log n) error growth and vectorizes well. The base case is
// unrolled plain summation.
func SumPairwise(x []float64) float64 {
	const base = 128
	if len(x) <= base {
		var s float64
		for _, v := range x {
			s += v
		}
		return s
	}
	half := len(x) / 2
	return SumPairwise(x[:half]) + SumPairwise(x[half:])
}

// Norm1 returns ‖x‖₁ = Σ|xᵢ|.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// Norm2 returns ‖x‖₂ with scaling to avoid premature overflow/underflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		scale, ssq = scaledSq(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// scaledSq folds v into Norm2's scaled sum of squares: ‖·‖₂ = scale·√ssq.
func scaledSq(scale, ssq, v float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
}

// ShiftedDotNorm2 returns x·t and ‖t‖₂ for t = w − µ·x in one read-only
// pass: pass A of the power iteration's fused step, serial twin of
// device.ShiftedDotNorm2. It is bit-identical to AXPY(−µ, x, w) (skipped
// for µ = 0) followed by Dot(x, w) and Norm2(w): the dot is the same strict
// left fold and the norm the same scaled accumulation.
func ShiftedDotNorm2(x, w []float64, mu float64) (dot, norm float64) {
	checkLen("ShiftedDotNorm2", len(x), len(w))
	a := -mu
	var s, scale, ssq float64 = 0, 0, 1
	for i, t := range w {
		if a != 0 {
			t += a * x[i]
		}
		s += x[i] * t
		scale, ssq = scaledSq(scale, ssq, t)
	}
	return s, scale * math.Sqrt(ssq)
}

// ShiftedResidualScale returns ‖t − λ·x‖₂ for t = w − µ·x and overwrites
// w ← c·t in the same pass: pass B of the power iteration's fused step,
// serial twin of device.ShiftedResidualScale. It is bit-identical to
// AXPY(−µ, x, w) (skipped for µ = 0), the strict left fold
// √Σ(wᵢ − λ·xᵢ)² and Scale(w, c).
func ShiftedResidualScale(x, w []float64, mu, lambda, c float64) float64 {
	checkLen("ShiftedResidualScale", len(x), len(w))
	a := -mu
	var s float64
	for i, t := range w {
		if a != 0 {
			t += a * x[i]
		}
		r := t - lambda*x[i]
		s += r * r
		w[i] = t * c
	}
	return math.Sqrt(s)
}

// LanczosTail is the fused vector tail of one Lanczos step: it overwrites
// w ← w − α·v − β·u and returns Σwᵢ² of the result from the same pass. A
// nil u drops the β term (the first step). Each element is updated as
// AXPY(−α, v, w) followed by AXPY(−β, u, w) would update it; the sum of
// squares is unscaled, accumulated in four lanes combined as
// ((s0+s1)+s2)+s3 with the tail folded on in index order, so a caller that
// needs the full floating-point range falls back to Norm2 when the sum
// leaves it.
func LanczosTail(w, v, u []float64, alpha, beta float64) float64 {
	checkLen("LanczosTail", len(w), len(v))
	if u == nil {
		u, beta = v, 0
	}
	checkLen("LanczosTail", len(w), len(u))
	var s0, s1, s2, s3 float64
	// Slice-advance loop: constant indexes on shrinking slices, which the
	// prover clears of bounds checks (scripts/check_bce.sh).
	for len(w) >= 4 && len(v) >= 4 && len(u) >= 4 {
		t0 := w[0] - alpha*v[0] - beta*u[0]
		t1 := w[1] - alpha*v[1] - beta*u[1]
		t2 := w[2] - alpha*v[2] - beta*u[2]
		t3 := w[3] - alpha*v[3] - beta*u[3]
		w[0], w[1], w[2], w[3] = t0, t1, t2, t3
		s0 += t0 * t0
		s1 += t1 * t1
		s2 += t2 * t2
		s3 += t3 * t3
		w, v, u = w[4:], v[4:], u[4:]
	}
	s := ((s0 + s1) + s2) + s3
	for len(w) > 0 && len(v) > 0 && len(u) > 0 {
		t := w[0] - alpha*v[0] - beta*u[0]
		w[0] = t
		s += t * t
		w, v, u = w[1:], v[1:], u[1:]
	}
	return s
}

// combineChunk is the chunk length of Combine's and DotEach's passes: 512
// entries (4 KiB) of the shared vector stay in L1 while the matching chunk
// of every basis vector streams past.
const combineChunk = 512

// DotEach sets c[t] = basis[t]ᵀw for t < len(c) in one pass over w, the
// transpose of Combine: w is walked in chunks of combineChunk entries, and
// each chunk is dotted with every basis vector while it is cache-resident.
// The order differs from Dot: each chunk's products are summed in four
// lanes combined as ((s0+s1)+s2)+s3, with the chunk's tail folded on in
// index order, and the chunk sums are added to c[t] in chunk order. Dot's
// single accumulator chain is latency bound; the four independent lanes
// take about half its time in the Lanczos reorthogonalization. It panics if
// basis has fewer than len(c) vectors or one of them differs in length
// from w.
func DotEach(c []float64, basis [][]float64, w []float64) {
	if len(basis) < len(c) {
		panic(fmt.Sprintf("vec: DotEach has %d coefficients for %d vectors", len(c), len(basis)))
	}
	for _, b := range basis[:len(c)] {
		checkLen("DotEach", len(w), len(b))
	}
	for t := range c {
		c[t] = 0
	}
	for lo := 0; len(w) > 0; {
		m := min(len(w), combineChunk)
		d := w[:m]
		for t := range c {
			// Always true after the length checks above (see Combine).
			if b := basis[t]; uint(lo) <= uint(len(b)) {
				c[t] += dotChunk(b[lo:], d)
			}
		}
		w, lo = w[m:], lo+m
	}
}

// dotChunk is DotEach's per-chunk dot product over the first len(y) entries
// of x, in four lanes.
func dotChunk(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	s := ((s0 + s1) + s2) + s3
	for len(x) > 0 && len(y) > 0 {
		s += x[0] * y[0]
		x, y = x[1:], y[1:]
	}
	return s
}

// Combine adds Σ_t c[t]·basis[t] to dst, for t < len(c), in one pass over
// dst, and returns Σdstᵢ² of the result. Each element is updated exactly as
// the AXPY sequence AXPY(c[0], basis[0], dst), AXPY(c[1], basis[1], dst), …
// would update it: the same operations in the same order. Only the
// traversal differs: dst is walked in chunks of combineChunk entries, and
// each chunk receives all len(c) terms, then has its squares summed, while
// it is cache-resident. The sum is LanczosTail's: unscaled, in four lanes by
// index mod 4 combined as ((s0+s1)+s2)+s3, with the last len(dst) mod 4
// entries folded on in index order, so a caller that needs the full
// floating-point range falls back to Norm2 when the sum leaves it. It panics
// if basis has fewer than len(c) vectors or one of them differs in length
// from dst.
func Combine(dst []float64, basis [][]float64, c []float64) float64 {
	if len(basis) < len(c) {
		panic(fmt.Sprintf("vec: Combine has %d coefficients for %d vectors", len(c), len(basis)))
	}
	for _, b := range basis[:len(c)] {
		checkLen("Combine", len(dst), len(b))
	}
	tail := dst[len(dst)&^3:] // the last len(dst) mod 4 entries
	var s0, s1, s2, s3 float64
	// Slice-advance over dst; lo is the chunk's offset into every term.
	for lo := 0; len(dst) > 0; {
		m := min(len(dst), combineChunk)
		d := dst[:m]
		for t, a := range c {
			// Always true after the length checks above; it lets the prover
			// clear b[lo:], which runs past the chunk (axpyChunk stops at
			// len(d)).
			if b := basis[t]; uint(lo) <= uint(len(b)) {
				axpyChunk(a, b[lo:], d)
			}
		}
		// combineChunk is a multiple of 4, so every chunk's lanes line up
		// with the index mod 4, and only the last chunk has a tail.
		for len(d) >= 4 {
			s0 += d[0] * d[0]
			s1 += d[1] * d[1]
			s2 += d[2] * d[2]
			s3 += d[3] * d[3]
			d = d[4:]
		}
		dst, lo = dst[m:], lo+m
	}
	s := ((s0 + s1) + s2) + s3
	for _, x := range tail {
		s += x * x
	}
	return s
}

// axpyChunk is AXPY's per-element update y ← y + a·x over one chunk, in the
// slice-advance idiom the prover clears of bounds checks.
func axpyChunk(a float64, x, y []float64) {
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

// NormInf returns ‖x‖∞ = max|xᵢ|.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies x by a in place.
func Scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

// AXPY computes y ← a·x + y in place. It panics if the lengths differ.
func AXPY(a float64, x, y []float64) {
	checkLen("AXPY", len(x), len(y))
	for i, xv := range x {
		y[i] += a * xv
	}
}

// Copy copies src into dst. It panics if the lengths differ.
func Copy(dst, src []float64) {
	checkLen("Copy", len(dst), len(src))
	copy(dst, src)
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Mul computes dst ← x ⊙ y elementwise. dst may alias x or y.
func Mul(dst, x, y []float64) {
	checkLen("Mul", len(x), len(y))
	checkLen("Mul", len(dst), len(x))
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
}

// Normalize1 scales x so that ‖x‖₁ = 1 and returns the original norm.
// Concentration vectors in the quasispecies model are probability
// distributions, so 1-norm normalization is the model's invariant
// Σ xᵢ = 1. It panics if x is the zero vector.
func Normalize1(x []float64) float64 {
	n := Norm1(x)
	if n == 0 {
		panic("vec: Normalize1 of zero vector")
	}
	Scale(x, 1/n)
	return n
}

// Normalize2 scales x so that ‖x‖₂ = 1 and returns the original norm.
// It panics if x is the zero vector.
func Normalize2(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		panic("vec: Normalize2 of zero vector")
	}
	Scale(x, 1/n)
	return n
}

// MaxIndex returns the index of the largest entry of x (first on ties)
// and that entry. It panics on an empty vector.
func MaxIndex(x []float64) (int, float64) {
	if len(x) == 0 {
		panic("vec: MaxIndex of empty vector")
	}
	idx, best := 0, x[0]
	for i, v := range x[1:] {
		if v > best {
			idx, best = i+1, v
		}
	}
	return idx, best
}

// Min returns the smallest entry of x. It panics on an empty vector.
func Min(x []float64) float64 {
	if len(x) == 0 {
		panic("vec: Min of empty vector")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest entry of x. It panics on an empty vector.
func Max(x []float64) float64 {
	_, m := MaxIndex(x)
	return m
}

// DistInf returns ‖x − y‖∞. It panics if the lengths differ.
func DistInf(x, y []float64) float64 {
	checkLen("DistInf", len(x), len(y))
	var m float64
	for i, xv := range x {
		if d := math.Abs(xv - y[i]); d > m {
			m = d
		}
	}
	return m
}

// Dist2 returns ‖x − y‖₂. It panics if the lengths differ.
func Dist2(x, y []float64) float64 {
	checkLen("Dist2", len(x), len(y))
	var s float64
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// AllFinite reports whether every entry of x is finite (no NaN or ±Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// AllPositive reports whether every entry of x is strictly positive.
func AllPositive(x []float64) bool {
	for _, v := range x {
		if v <= 0 {
			return false
		}
	}
	return true
}

// AllNonNegative reports whether every entry of x is ≥ −tol. The Perron
// eigenvector is mathematically non-negative; tiny negative round-off is
// tolerated by callers that pass a small tol.
func AllNonNegative(x []float64, tol float64) bool {
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	return true
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: %s length mismatch %d vs %d", op, a, b))
	}
}
