// Package vec provides the dense-vector kernels used throughout the
// solver: dot products, norms, scaled updates and compensated summation.
// All functions operate on []float64 in place where possible, since the
// quasispecies state vectors have N = 2^ν entries and every avoidable copy
// matters at large chain lengths.
//
// Serial implementations live in this file and the 4-lane kernel set, with
// its AVX2 bodies and the summation-order contract, in lanes.go; the device
// package reduces over the same kernels per chunk, so this package stays
// dependency-free and trivially testable.
package vec

import (
	"fmt"
	"math"
)

// ReduceChunk is the length of the pieces a chunked reduction sums one at a
// time: Dot, Norm2, ShiftedDotNorm2 and ShiftedResidualScale here, and
// their internal/device twins, which hand one piece to each chunk of a
// launch. Piece k covers [k·ReduceChunk, min((k+1)·ReduceChunk, n)); it is
// summed in the 4-lane order, and the piece partials are added in
// ascending k, the first one seeding the sum. The partition depends on the
// length alone, so a reduction's bits do not depend on the worker count
// (lanes.go). At 2^17 every vector of ν ≤ 17 is one piece.
const ReduceChunk = 1 << 17

// reduceChunks returns the two partials f returns on each ReduceChunk
// piece of x and w, each added in ascending piece order. f sees the pieces
// of x and w at the same offset, and w's piece runs to the end of w when
// w is longer.
func reduceChunks(x, w []float64, f func(x, w []float64) (float64, float64)) (a, b float64) {
	a, b = f(firstPiece(x), w)
	for len(x) > ReduceChunk && len(w) > ReduceChunk {
		x, w = x[ReduceChunk:], w[ReduceChunk:]
		p, q := f(firstPiece(x), w)
		a, b = a+p, b+q
	}
	return a, b
}

// firstPiece returns the first ReduceChunk piece of x.
func firstPiece(x []float64) []float64 {
	if len(x) > ReduceChunk {
		return x[:ReduceChunk]
	}
	return x
}

// Dot returns the Euclidean inner product xᵀy, DotLanes on each
// ReduceChunk piece. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	checkLen("Dot", len(x), len(y))
	s, _ := reduceChunks(x, y, func(x, y []float64) (float64, float64) {
		return DotLanes(x, y), 0
	})
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

// Norm2 returns ‖x‖₂: the sum of squares, SumSq on each ReduceChunk
// piece, through NormFromSumSq's range check, so it neither over- nor
// underflows.
func Norm2(x []float64) float64 {
	s, _ := reduceChunks(x, x, func(x, _ []float64) (float64, float64) {
		return SumSq(x), 0
	})
	return NormFromSumSq(s, nil, x, 0)
}

// scaledSq folds v into NormFromSumSq's scaled sum of squares:
// ‖·‖₂ = scale·√ssq.
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
// pass: pass A of the power iteration's fused step (ShiftedDotSumSq on
// each ReduceChunk piece), with the norm through NormFromSumSq's range
// check. device.ShiftedDotNorm2 returns the same bits at every worker
// count.
func ShiftedDotNorm2(x, w []float64, mu float64) (dot, norm float64) {
	checkLen("ShiftedDotNorm2", len(x), len(w))
	dot, ssq := reduceChunks(x, w, func(x, w []float64) (float64, float64) {
		return ShiftedDotSumSq(x, w, mu)
	})
	return dot, NormFromSumSq(ssq, x, w, mu)
}

// ShiftedResidualScale returns ‖t − λ·x‖₂ for t = w − µ·x and overwrites
// w ← c·t in the same pass: pass B of the power iteration's fused step
// (ShiftedResidualSumSq on each ReduceChunk piece).
// device.ShiftedResidualScale returns the same bits at every worker count.
func ShiftedResidualScale(x, w []float64, mu, lambda, c float64) float64 {
	checkLen("ShiftedResidualScale", len(x), len(w))
	s, _ := reduceChunks(x, w, func(x, w []float64) (float64, float64) {
		return ShiftedResidualSumSq(x, w, mu, lambda, c), 0
	})
	return math.Sqrt(s)
}

// NormFromSumSq returns ‖t‖₂ for t = w − µ·x from Σtᵢ², summed unscaled by
// a 4-lane pass: √ssq while the sum lies in [2⁻⁹⁰⁰, 2⁹⁰⁰], and otherwise —
// it under- or overflowed, or is 0 or NaN — a scaled accumulation over t
// formed on the fly (‖t‖₂ = scale·√q, one division per element). x is not
// read when µ = 0 and may then be nil. It is the one range check of every
// norm in the module, serial and device alike, so callers that need the
// full floating-point range (a breakdown test, a normalization) see the
// true norm.
func NormFromSumSq(ssq float64, x, w []float64, mu float64) float64 {
	if ssq >= 0x1p-900 && ssq <= 0x1p900 {
		return math.Sqrt(ssq)
	}
	var scale, q float64 = 0, 1
	if a := -mu; a != 0 {
		for len(x) > 0 && len(w) > 0 {
			scale, q = scaledSq(scale, q, w[0]+a*x[0])
			x, w = x[1:], w[1:]
		}
	} else {
		for _, v := range w {
			scale, q = scaledSq(scale, q, v)
		}
	}
	return scale * math.Sqrt(q)
}

// combineChunk is the chunk length of Combine's and DotEach's passes: 512
// entries (4 KiB) of the shared vector stay in L1 while the matching chunk
// of every basis vector streams past.
const combineChunk = 512

// DotEach sets c[t] = basis[t]ᵀw for t < len(c) in one pass over w, the
// transpose of Combine: w is walked in chunks of combineChunk entries, and
// each chunk is dotted with every basis vector while it is cache-resident.
// Each chunk's products are summed in the 4-lane order (DotLanes), and the
// chunk sums are added to c[t] in chunk order, so c[t] is Dot(basis[t], w)
// regrouped at chunk boundaries. It panics if
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
				c[t] += DotLanes(b[lo:], d)
			}
		}
		w, lo = w[m:], lo+m
	}
}

// Combine adds Σ_t c[t]·basis[t] to dst, for t < len(c), in one pass over
// dst, and returns Σdstᵢ² of the result. Each element is updated exactly as
// the AXPY sequence AXPY(c[0], basis[0], dst), AXPY(c[1], basis[1], dst), …
// would update it: the same operations in the same order. Only the
// traversal differs: dst is walked in chunks of combineChunk entries, and
// each chunk receives all len(c) terms, then has its squares summed, while
// it is cache-resident. The sum is LanczosTail's: unscaled, in the 4-lane
// order over all of dst, so a caller that needs the full floating-point
// range passes it through NormFromSumSq. It panics
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
	var lanes [4]float64
	// Slice-advance over dst; lo is the chunk's offset into every term.
	for lo := 0; len(dst) > 0; {
		m := min(len(dst), combineChunk)
		d := dst[:m]
		for t, a := range c {
			// Always true after the length checks above; it lets the prover
			// clear b[lo:], which runs past the chunk (axpy stops at len(d)).
			if b := basis[t]; uint(lo) <= uint(len(b)) {
				axpy(a, b[lo:], d)
			}
		}
		// combineChunk is a multiple of 4, so every chunk's lanes line up
		// with the index mod 4, and only the last chunk has a tail.
		sumSqLanes(&lanes, d)
		dst, lo = dst[m:], lo+m
	}
	return foldSq(&lanes, tail)
}

// AXPY computes y ← a·x + y in place. It panics if the lengths differ.
func AXPY(a float64, x, y []float64) {
	checkLen("AXPY", len(x), len(y))
	axpy(a, x, y)
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

// AllFinite reports whether every entry of x is finite (no NaN or ±Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
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
