package core

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/vec"
)

// Concentrations converts a dominant eigenvector of the Right formulation
// (Q·F) in place into the relative-concentration distribution of the
// quasispecies: tiny negative round-off is clamped to zero and the vector
// is normalized to Σxᵢ = 1. It returns an error, and leaves x as it was,
// if an entry is not finite, if x is zero, or if genuinely negative
// entries are present (which would contradict Perron–Frobenius and
// indicates the iterate has not converged).
//
// It makes two passes: vec.ConcentrationScan finds max|xᵢ|, min xᵢ and the
// clamped sum Σ max(xᵢ, 0) before anything is written, and vec.ClampScale
// clamps and scales. The clamped sum in the 4-lane order is bit for bit
// Norm1 of the clamped vector, so the result is the one of NormInf, a
// clamp of the negatives and Normalize1, bit for bit, in one pass fewer.
func Concentrations(x []float64) error {
	const tol = 1e-9
	nrm, least, sum := vec.ConcentrationScan(x)
	// A NaN entry makes the sum NaN, and an infinite one the maximum.
	if math.IsNaN(sum) || math.IsInf(nrm, 1) {
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: eigenvector entry %d = %g is not finite", i, v)
			}
		}
	}
	if nrm == 0 {
		return fmt.Errorf("core: zero vector has no concentration interpretation")
	}
	if lim := -tol * nrm; least < lim {
		for i, v := range x {
			if v < lim {
				return fmt.Errorf("core: eigenvector entry %d = %g is significantly negative; "+
					"not a Perron vector", i, v)
			}
		}
	}
	vec.ClampScale(x, 1/sum)
	return nil
}

// ClassConcentrations returns the cumulative concentrations
// [Γ_k] = Σ_{j ∈ Γ_k} x_j of the ν+1 error classes with respect to the
// master sequence — the quantities plotted in Figure 1. x must be a
// concentration vector of length 2^ν.
//
// Each class adds its entries in index order. For ν ≥ 4 the entries go
// one 16-entry block at a time: entry r of block b has weight
// w(b) + w(r) with w(r) ≤ 4, so a block touches only the five classes
// w(b) … w(b)+4, whose sums stay in registers across the block, and the
// class of each entry is fixed by its position r.
func ClassConcentrations(nu int, x []float64) ([]float64, error) {
	if len(x) != bits.SpaceSize(nu) {
		return nil, fmt.Errorf("core: vector length %d does not match 2^%d", len(x), nu)
	}
	gamma := make([]float64, nu+1)
	if nu < 4 {
		for i, v := range x {
			gamma[bits.Weight(uint64(i))] += v
		}
		return gamma, nil
	}
	for b := uint64(0); len(x) >= 16; b++ {
		w := bits.Weight(b)
		g := gamma[w : w+5 : w+5]
		g0, g1, g2, g3, g4 := g[0], g[1], g[2], g[3], g[4]
		g0 += x[0]  // r = 0000
		g1 += x[1]  // 0001
		g1 += x[2]  // 0010
		g2 += x[3]  // 0011
		g1 += x[4]  // 0100
		g2 += x[5]  // 0101
		g2 += x[6]  // 0110
		g3 += x[7]  // 0111
		g1 += x[8]  // 1000
		g2 += x[9]  // 1001
		g2 += x[10] // 1010
		g3 += x[11] // 1011
		g2 += x[12] // 1100
		g3 += x[13] // 1101
		g3 += x[14] // 1110
		g4 += x[15] // 1111
		g[0], g[1], g[2], g[3], g[4] = g0, g1, g2, g3, g4
		x = x[16:]
	}
	return gamma, nil
}
