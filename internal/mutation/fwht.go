package mutation

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/span"
	"repro/internal/vec"
)

// This file implements the spectral machinery of Section 2: the fast
// Walsh–Hadamard transform that realizes multiplication with the
// eigenvector matrix V(ν) of Q(ν), and the Θ(N·log₂N) shift-and-invert
// product (Q − µI)⁻¹·v = V·(Λ−µI)⁻¹·V·v with the closed-form eigenvalues
// Λ(ν)ᵢᵢ = (1−2p)^dH(i,0). No solve route runs the product: an inverse of
// Q alone cannot serve W = Q·F, whose shift-invert gear is core's
// ShiftInvertLanczos. resolution.WalshMoments is the transform's caller.
// The transforms run on the cache-blocked kernels of blocked.go, with the
// Hadamard butterfly specialized to additions; FWHTNaive keeps the
// one-pass-per-stage loop as the bit-identical reference.

// FWHT performs the unnormalized in-place fast Walsh–Hadamard transform
// of v: v ← H(ν)·v with H(ν) = ⊗ᵢ [[1,1],[1,−1]]. len(v) must be a power
// of two. Applying FWHT twice multiplies by N. The blocked execution is
// bit-identical to FWHTNaive.
func FWHT(v []float64) {
	checkFWHTLen(len(v))
	fwhtBlocked(v, TileBits(), fuseStages)
}

// FWHTNaive is the literal stage loop of the transform — one full pass
// over the vector per stride — kept as the reference and benchmark
// baseline for the blocked kernel.
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

// fwhtBlocked is the cache-blocked transform: all stages with span ≤ B
// fused into one pass over B-element tiles, the remaining stages fused in
// groups of ≤ fuse row-block passes (see blocked.go for the scheme).
func fwhtBlocked(v []float64, tb, fuse int) {
	n := len(v)
	if n <= 1 {
		return
	}
	if fuse < 1 {
		fuse = 1
	}
	if fuse > maxFuseStages {
		fuse = maxFuseStages
	}
	B := 1 << uint(tb)
	if B > n {
		B = n
	}
	for t := 0; t < n; t += B {
		fwhtTile(v[t : t+B])
	}
	lgR := log2(n / B)
	for s := 0; s < lgR; {
		m := lgR - s
		if m > fuse {
			m = fuse
		}
		fwhtCross(v, B, s, m)
		s += m
	}
}

// bfly4h is the radix-4 Hadamard butterfly as a pure register function:
// the operation sequence is exactly that of two radix-2 stages (first the
// (e0,e1) and (e2,e3) pairs, then the (e0,e2) and (e1,e3) pairs), so every
// fused path built on it stays bit-identical to the naive stage loop.
func bfly4h(e0, e1, e2, e3 float64) (float64, float64, float64, float64) {
	e0, e1 = e0+e1, e0-e1
	e2, e3 = e2+e3, e2-e3
	e0, e2 = e0+e2, e0-e2
	e1, e3 = e1+e3, e1-e3
	return e0, e1, e2, e3
}

// fwhtTile applies every stage with span ≤ len(tile) inside one tile.
// Stage pairs run radix-4 (four elements in registers per load/store sweep);
// the per-element rounding sequence matches the radix-2 stage loop exactly.
// Like the mutation kernels (blocked.go), the loops hoist exact-length lane
// subslices for bounds-check elimination and run 4-wide for ILP.
func fwhtTile(tile []float64) {
	stride := 1
	if 4 <= len(tile) {
		// First radix-4 pass: contiguous quads, two butterflies in flight.
		// Slice-advance with constant indexes is the loop form the go1.24
		// prover discharges completely (scripts/check_bce.sh).
		t := tile
		for len(t) >= 8 {
			a0, a1, a2, a3 := bfly4h(t[0], t[1], t[2], t[3])
			c0, c1, c2, c3 := bfly4h(t[4], t[5], t[6], t[7])
			t[0], t[1], t[2], t[3] = a0, a1, a2, a3
			t[4], t[5], t[6], t[7] = c0, c1, c2, c3
			t = t[8:]
		}
		if len(t) >= 4 {
			t[0], t[1], t[2], t[3] = bfly4h(t[0], t[1], t[2], t[3])
		}
		stride = 4
	}
	for ; 4*stride <= len(tile); stride *= 4 {
		if vec.UseAVX2() {
			// stride ≥ 4 here (the contiguous first pass already ran), so
			// the whole radix-4 pass vectorizes (avx_amd64.s).
			avxTileHad(&tile[0], len(tile)&^(4*stride-1), stride)
			continue
		}
		for j := 0; j+4*stride <= len(tile); j += 4 * stride {
			s0 := tile[j : j+stride : j+stride]
			s1 := tile[j+stride : j+2*stride : j+2*stride]
			s2 := tile[j+2*stride : j+3*stride : j+3*stride]
			s3 := tile[j+3*stride : j+4*stride : j+4*stride]
			for len(s0) >= 4 && len(s1) >= 4 && len(s2) >= 4 && len(s3) >= 4 {
				a0, a1, a2, a3 := bfly4h(s0[0], s1[0], s2[0], s3[0])
				c0, c1, c2, c3 := bfly4h(s0[1], s1[1], s2[1], s3[1])
				e0, e1, e2, e3 := bfly4h(s0[2], s1[2], s2[2], s3[2])
				g0, g1, g2, g3 := bfly4h(s0[3], s1[3], s2[3], s3[3])
				s0[0], s1[0], s2[0], s3[0] = a0, a1, a2, a3
				s0[1], s1[1], s2[1], s3[1] = c0, c1, c2, c3
				s0[2], s1[2], s2[2], s3[2] = e0, e1, e2, e3
				s0[3], s1[3], s2[3], s3[3] = g0, g1, g2, g3
				s0, s1, s2, s3 = s0[4:], s1[4:], s2[4:], s3[4:]
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(s3) > 0 {
				s0[0], s1[0], s2[0], s3[0] = bfly4h(s0[0], s1[0], s2[0], s3[0])
				s0, s1, s2, s3 = s0[1:], s1[1:], s2[1:], s3[1:]
			}
		}
	}
	if stride < len(tile) {
		// One leftover radix-2 stage (log₂ len odd).
		for j := 0; j+2*stride <= len(tile); j += 2 * stride {
			u := tile[j : j+stride : j+stride]
			w := tile[j+stride : j+2*stride : j+2*stride]
			for len(u) >= 4 && len(w) >= 4 {
				t1a, t2a := u[0], w[0]
				t1b, t2b := u[1], w[1]
				t1c, t2c := u[2], w[2]
				t1d, t2d := u[3], w[3]
				u[0], w[0] = t1a+t2a, t1a-t2a
				u[1], w[1] = t1b+t2b, t1b-t2b
				u[2], w[2] = t1c+t2c, t1c-t2c
				u[3], w[3] = t1d+t2d, t1d-t2d
				u, w = u[4:], w[4:]
			}
			for len(u) > 0 && len(w) > 0 {
				t1, t2 := u[0], w[0]
				u[0] = t1 + t2
				w[0] = t1 - t2
				u, w = u[1:], w[1:]
			}
		}
	}
}

// fwhtCross applies m fused row stages starting at row-bit rb0 over the
// (n/B)×B row matrix view of v.
func fwhtCross(v []float64, B, rb0, m int) {
	lowMask := 1<<uint(rb0) - 1
	nBases := (len(v) / B) >> uint(m)
	for bb := 0; bb < nBases; bb++ {
		base := ((bb &^ lowMask) << uint(m)) | (bb & lowMask)
		fwhtCrossGroup(v, B, base, rb0, m)
	}
}

// fwhtCrossGroup applies the fused Hadamard stages to one interacting set
// of 2^m rows, sweeping cache-resident column chunks; stage pairs run
// radix-4 like in fwhtTile.
func fwhtCrossGroup(v []float64, B, baseRow, rb0, m int) {
	size := 1 << uint(m)
	var rp [1 << maxFuseStages][]float64
	for t := 0; t < size; t++ {
		r := baseRow | t<<uint(rb0)
		rp[t] = v[r*B : r*B+B]
	}
	colChunk := colChunkFor(size, B)
	for c0 := 0; c0 < B; c0 += colChunk {
		c1 := c0 + colChunk
		if c1 > B {
			c1 = B
		}
		s := 0
		for ; s+1 < m; s += 2 {
			bit1, bit2 := 1<<uint(s), 2<<uint(s)
			for t := 0; t < size; t++ {
				if t&(bit1|bit2) != 0 {
					continue
				}
				fwhtCrossQuad(rp[t][c0:c1], rp[t|bit1][c0:c1],
					rp[t|bit2][c0:c1], rp[t|bit1|bit2][c0:c1])
			}
		}
		if s < m {
			bit := 1 << uint(s)
			for t := 0; t < size; t++ {
				if t&bit != 0 {
					continue
				}
				u, w := rp[t][c0:c1], rp[t|bit][c0:c1]
				for len(u) >= 4 && len(w) >= 4 {
					t1a, t2a := u[0], w[0]
					t1b, t2b := u[1], w[1]
					t1c, t2c := u[2], w[2]
					t1d, t2d := u[3], w[3]
					u[0], w[0] = t1a+t2a, t1a-t2a
					u[1], w[1] = t1b+t2b, t1b-t2b
					u[2], w[2] = t1c+t2c, t1c-t2c
					u[3], w[3] = t1d+t2d, t1d-t2d
					u, w = u[4:], w[4:]
				}
				for len(u) > 0 && len(w) > 0 {
					t1, t2 := u[0], w[0]
					u[0] = t1 + t2
					w[0] = t1 - t2
					u, w = u[1:], w[1:]
				}
			}
		}
	}
}

// fwhtCrossQuad applies a fused pair of Hadamard stages radix-4 across four
// gathered row chunks, 4 columns (independent butterflies) per iteration.
func fwhtCrossQuad(r0, r1, r2, r3 []float64) {
	if vec.UseAVX2() {
		n := min(len(r0), len(r1), len(r2), len(r3)) &^ 3
		if n > 0 {
			avxQuadH(&r0[0], &r1[0], &r2[0], &r3[0], n)
			r0, r1, r2, r3 = r0[n:], r1[n:], r2[n:], r3[n:]
		}
	}
	for len(r0) >= 4 && len(r1) >= 4 && len(r2) >= 4 && len(r3) >= 4 {
		a0, a1, a2, a3 := bfly4h(r0[0], r1[0], r2[0], r3[0])
		c0, c1, c2, c3 := bfly4h(r0[1], r1[1], r2[1], r3[1])
		e0, e1, e2, e3 := bfly4h(r0[2], r1[2], r2[2], r3[2])
		g0, g1, g2, g3 := bfly4h(r0[3], r1[3], r2[3], r3[3])
		r0[0], r1[0], r2[0], r3[0] = a0, a1, a2, a3
		r0[1], r1[1], r2[1], r3[1] = c0, c1, c2, c3
		r0[2], r1[2], r2[2], r3[2] = e0, e1, e2, e3
		r0[3], r1[3], r2[3], r3[3] = g0, g1, g2, g3
		r0, r1, r2, r3 = r0[4:], r1[4:], r2[4:], r3[4:]
	}
	for len(r0) > 0 && len(r1) > 0 && len(r2) > 0 && len(r3) > 0 {
		r0[0], r1[0], r2[0], r3[0] = bfly4h(r0[0], r1[0], r2[0], r3[0])
		r0, r1, r2, r3 = r0[1:], r1[1:], r2[1:], r3[1:]
	}
}

// fillShiftInvertSpectrum fills q.siInv with (Λ−µI)⁻¹ per Hamming weight,
// or reports the eigenvalue µ collides with.
func (q *Process) fillShiftInvertSpectrum(mu float64) error {
	base := 1 - 2*q.p
	lam := 1.0
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

// ApplyShiftInvert computes v ← (Q − µI)⁻¹·v in place in Θ(N·log₂N) time
// via the eigendecomposition route of Section 3:
//
//	(Q − µI)⁻¹·v = V·(Λ − µI)⁻¹·V·v,
//
// where V·v is one FWHT. µ must not equal any eigenvalue (1−2p)^k.
// Only valid for uniform processes. The spectrum scratch lives on the
// Process, so the call is allocation-free (and therefore must not run
// concurrently with itself on one Process).
func (q *Process) ApplyShiftInvert(v []float64, mu float64) error {
	q.requireUniform("ApplyShiftInvert")
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

func (q *Process) requireUniform(op string) {
	if !q.uniform {
		panic(fmt.Sprintf("mutation: %s requires the uniform-rate process", op))
	}
}
