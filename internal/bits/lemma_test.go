package bits

import "fmt"

// The Gray code of footnote 2 and the error-class facts of Section 5.1:
// class sizes, the canonical class representative, class enumeration
// around any center and the bit permutations σ_{i,i'}. No solver route
// needs them: the reduction in internal/errorclass works on class indices
// alone. The tests in bits_test.go check the paper's statements about
// them, the properties (I), (II) and (IV) that make the reduction exact.

// gray returns the i-th Gray code value. Consecutive Gray codes differ in
// exactly one bit, so reordering the sequence space by Gray code makes
// dH(X_i, X_{i+1}) = 1 for all i (footnote 2 of the paper).
func gray(i uint64) uint64 {
	return i ^ (i >> 1)
}

// grayInverse returns the rank of the Gray code value g, inverting gray.
func grayInverse(g uint64) uint64 {
	i := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		i ^= i >> shift
	}
	return i
}

// classSizes returns the sizes |Γ_k| = C(nu, k) of all nu+1 error classes.
func classSizes(nu int) []uint64 {
	sizes := make([]uint64, nu+1)
	for k := 0; k <= nu; k++ {
		sizes[k] = Binomial(nu, k)
	}
	return sizes
}

// classRepresentative returns the canonical representative of error class
// Γ_k for chain length nu: the sequence 2^k − 1 whose k lowest bits are set
// (the "natural and most obvious" choice named in Section 5.1).
func classRepresentative(nu, k int) uint64 {
	if k < 0 || k > nu {
		panic(fmt.Sprintf("bits: class index %d out of range [0,%d]", k, nu))
	}
	return (uint64(1) << uint(k)) - 1
}

// enumerateClass calls fn for every sequence j in the error class Γ_{k,i}
// = {j : dH(X_i, X_j) = k} for chain length nu, in increasing XOR-mask
// order. It visits exactly C(nu, k) sequences.
func enumerateClass(nu, k int, i uint64, fn func(j uint64)) {
	EnumerateWeight(nu, k, func(mask uint64) { fn(i ^ mask) })
}

// sigmaPermutation represents the bit permutation σ_{i,i'} of Section 5.1:
// for two sequences i, i' in the same error class (dH(i,0) = dH(i',0)),
// σ maps the set bits of i onto the set bits of i' (as a product of
// transpositions in cycle notation) and fixes all other bit positions.
type sigmaPermutation struct {
	// perm[b] is the image bit position of bit position b.
	perm []int
}

// newSigmaPermutation builds σ_{i,i'} for chain length nu. It panics if
// i and i' lie in different error classes, mirroring the paper's
// precondition dH(i,0) = dH(i',0).
func newSigmaPermutation(nu int, i, iPrime uint64) *sigmaPermutation {
	if Weight(i) != Weight(iPrime) {
		panic(fmt.Sprintf("bits: σ undefined for %d and %d: different error classes (%d vs %d)",
			i, iPrime, Weight(i), Weight(iPrime)))
	}
	perm := make([]int, nu)
	bi := BitIndices(i)
	bj := BitIndices(iPrime)
	// Map the t-th set bit of i to the t-th set bit of i', and the t-th
	// clear bit of i to the t-th clear bit of i'. This realizes the same
	// mapping as the paper's product of transpositions: a bit permutation
	// with σ(i) = i' that therefore preserves Hamming weights (I), fixes
	// every error class setwise (II), and preserves distances (IV).
	for t := range bi {
		perm[bi[t]] = bj[t]
	}
	inI, inJ := make([]bool, nu), make([]bool, nu)
	for _, b := range bi {
		inI[b] = true
	}
	for _, b := range bj {
		inJ[b] = true
	}
	ci, cj := make([]int, 0, nu-len(bi)), make([]int, 0, nu-len(bj))
	for b := 0; b < nu; b++ {
		if !inI[b] {
			ci = append(ci, b)
		}
		if !inJ[b] {
			cj = append(cj, b)
		}
	}
	for t := range ci {
		perm[ci[t]] = cj[t]
	}
	return &sigmaPermutation{perm: perm}
}

// Apply permutes the bits of the nu-bit vector j according to σ.
func (s *sigmaPermutation) Apply(j uint64) uint64 {
	var out uint64
	for b, img := range s.perm {
		if j&(1<<uint(b)) != 0 {
			out |= 1 << uint(img)
		}
	}
	return out
}

// Len returns the chain length the permutation acts on.
func (s *sigmaPermutation) Len() int { return len(s.perm) }
