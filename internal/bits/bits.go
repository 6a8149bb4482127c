// Package bits provides the sequence-space primitives underlying the
// quasispecies model: binary sequences of chain length ν are identified
// with the integers 0 … 2^ν−1, mutation distance is the Hamming distance,
// and the error class Γ_{k,i} collects all sequences at Hamming distance k
// from sequence i.
//
// Everything in this package is exact integer or combinatorial arithmetic;
// it has no floating-point state and no dependencies beyond the standard
// library.
package bits

import (
	"fmt"
	"math"
	mathbits "math/bits"
)

// MaxChainLen is the largest chain length ν for which a full sequence space
// (N = 2^ν states) can be represented with signed 64-bit indices while still
// leaving headroom for index arithmetic such as 2*i. Implicit (Kronecker)
// representations may go far beyond this; dense vectors may not.
const MaxChainLen = 62

// SpaceSize returns N = 2^nu, the number of binary sequences of chain
// length nu. It panics if nu is negative or larger than MaxChainLen.
func SpaceSize(nu int) int {
	if nu < 0 || nu > MaxChainLen {
		panic(fmt.Sprintf("bits: chain length %d out of range [0,%d]", nu, MaxChainLen))
	}
	return 1 << uint(nu)
}

// Hamming returns the Hamming distance dH(i, j) between the binary
// representations of i and j, i.e. the number of single point mutations
// needed to transform sequence X_i into sequence X_j.
func Hamming(i, j uint64) int {
	return mathbits.OnesCount64(i ^ j)
}

// Weight returns dH(i, 0), the Hamming weight of i — the error class index
// of sequence i relative to the master sequence X_0.
func Weight(i uint64) int {
	return mathbits.OnesCount64(i)
}

// Binomial returns the binomial coefficient C(n, k) as an exact uint64.
// It panics on overflow, which cannot happen for the n ≤ 62 used with
// dense sequence spaces. C(n,k)=0 for k<0 or k>n.
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		hi, lo := mathbits.Mul64(c, uint64(n-i))
		if hi != 0 {
			panic(fmt.Sprintf("bits: binomial C(%d,%d) overflows uint64", n, k))
		}
		c = lo / uint64(i+1)
	}
	return c
}

// BinomialFloat returns C(n, k) as a float64, valid also for large n where
// the exact value exceeds uint64 range (it uses lgamma in that regime).
func BinomialFloat(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if n <= 62 {
		return float64(Binomial(n, k))
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(lg - lk - lnk)
}

// EnumerateWeight calls fn for every nu-bit value of Hamming weight k in
// increasing numeric order, using Gosper's hack to step between values.
func EnumerateWeight(nu, k int, fn func(v uint64)) {
	if k < 0 || k > nu {
		return
	}
	if k == 0 {
		fn(0)
		return
	}
	limit := uint64(1) << uint(nu)
	v := (uint64(1) << uint(k)) - 1
	for v < limit {
		fn(v)
		// Gosper's hack: next higher value with the same popcount.
		c := v & (^v + 1)
		r := v + c
		if r >= limit || r < v {
			// Adding the carry overflowed past the nu-bit space.
			break
		}
		v = r | (((v ^ r) >> 2) / c)
	}
}

// EnumerateUpToWeight calls fn for every nu-bit value with Hamming weight in
// [0, dmax], ordered by weight then numerically. This is the neighbourhood
// mask set used by the sparse Xmvp(dmax) product of [Niederbrucker &
// Gansterer 2011a].
func EnumerateUpToWeight(nu, dmax int, fn func(v uint64, weight int)) {
	if dmax > nu {
		dmax = nu
	}
	for k := 0; k <= dmax; k++ {
		w := k
		EnumerateWeight(nu, k, func(v uint64) { fn(v, w) })
	}
}

// NeighborhoodSize returns Σ_{k=0..dmax} C(nu,k), the number of sequences
// within Hamming distance dmax of any fixed sequence.
func NeighborhoodSize(nu, dmax int) uint64 {
	if dmax > nu {
		dmax = nu
	}
	var s uint64
	for k := 0; k <= dmax; k++ {
		s += Binomial(nu, k)
	}
	return s
}

// BitIndices returns the positions of the set bits of v in increasing order.
func BitIndices(v uint64) []int {
	idx := make([]int, 0, mathbits.OnesCount64(v))
	for v != 0 {
		b := mathbits.TrailingZeros64(v)
		idx = append(idx, b)
		v &= v - 1
	}
	return idx
}
