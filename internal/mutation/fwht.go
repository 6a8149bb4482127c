package mutation

import (
	"fmt"
	"math"
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/span"
)

// This file implements the spectral machinery of Section 2: the fast
// Walsh–Hadamard transform V(ν)·v — Fmmp's butterfly recursion with the
// factor [[1, 1],[1, −1]], run on the stage engine of blocked.go — and the
// Θ(N·log₂N) product (Q − µI)⁻¹·v = V·(Λ−µI)⁻¹·V·v with the closed-form
// Λ(ν)ᵢᵢ = (1−2p)^dH(i,0). resolution.WalshMoments calls the transform; no
// solve route runs the product (W = Q·F has core's ShiftInvertLanczos).

// hadamard is FWHT's stage table: the Hadamard factor for each index bit.
var hadamard = func() (fs [64]Factor2) {
	for i := range fs {
		fs[i] = Factor2{A: 1, B: 1, C: 1, D: -1}
	}
	return fs
}()

// FWHT computes v ← H(ν)·v in place, the unnormalized transform with
// H(ν) = ⊗ᵢ [[1,1],[1,−1]]; len(v) must be a power of two. The general
// butterfly's 1·t1 + 1·t2 and 1·t1 + (−1)·t2 round exactly like t1 + t2
// and t1 − t2, so FWHT is bit-identical to FWHTNaive.
func FWHT(v []float64) {
	checkFWHTLen(len(v))
	applyStagesBlocked(v, 0, hadamard[:mbits.TrailingZeros(uint(len(v)))], tileBits, fuseStages)
}

// FWHTNaive is FWHT's reference and baseline: one full pass per stride.
func FWHTNaive(v []float64) {
	checkFWHTLen(len(v))
	n := len(v)
	for stride := 1; stride < n; stride <<= 1 {
		for j := 0; j < n; j += 2 * stride {
			for k := j; k < j+stride; k++ {
				t1, t2 := v[k], v[k+stride]
				v[k] = t1 + t2
				v[k+stride] = t1 - t2
			}
		}
	}
}

func checkFWHTLen(n int) {
	if n&(n-1) != 0 || n == 0 {
		panic(fmt.Sprintf("mutation: FWHT length %d is not a power of two", n))
	}
}

// fillShiftInvertSpectrum fills q.siInv with (Λ−µI)⁻¹ per Hamming weight,
// or reports a µ that is not finite or equals an eigenvalue.
func (q *Process) fillShiftInvertSpectrum(mu float64) error {
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return fmt.Errorf("mutation: shift µ = %g is not finite", mu)
	}
	lam, base := 1.0, 1-2*q.p
	for k := 0; k <= q.nu; k++ {
		d := lam - mu
		if d == 0 {
			return fmt.Errorf("mutation: shift µ = %g equals eigenvalue (1−2p)^%d", mu, k)
		}
		q.siInv[k] = 1 / d
		lam *= base
	}
	return nil
}

// ApplyShiftInvert computes v ← (Q − µI)⁻¹·v = V·(Λ − µI)⁻¹·V·v in place in
// Θ(N·log₂N) time (Section 3), V·v being one FWHT. A µ that is not finite
// or equals an eigenvalue (1−2p)^k returns an error and leaves v as it
// was; a non-uniform process panics. The spectrum scratch lives on the
// Process: the call is allocation-free and must not run concurrently with
// itself on one Process.
func (q *Process) ApplyShiftInvert(v []float64, mu float64) error {
	if !q.uniform {
		panic("mutation: ApplyShiftInvert requires the uniform-rate process")
	}
	q.checkDim(len(v))
	if err := q.fillShiftInvertSpectrum(mu); err != nil {
		return err
	}
	sp := span.Begin(span.LayerMutation, KindShiftInvert)
	inv := q.siInv
	FWHT(v)
	scale := 1 / float64(q.n) // the two 2^(−ν/2) factors of V·…·V combined
	for i := range v {
		v[i] *= inv[bits.Weight(uint64(i))] * scale
	}
	FWHT(v)
	span.End(sp, int64(q.nu), 0)
	return nil
}
