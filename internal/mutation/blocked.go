package mutation

import (
	"repro/internal/device"
	"repro/internal/vec"
)

// This file implements the cache-blocked, stage-fused form of the butterfly
// kernels. The naive loops of Algorithm 1 walk the full vector once per
// stage with strides up to N/2; at ν ≥ 20 every late stage is a pass over
// tens or hundreds of megabytes, so the kernel's Θ(N·log₂N) flops hide
// behind Θ(N·log₂N) DRAM traffic. Blocking restructures the same dataflow
// into few passes:
//
//   - The first stages — all with butterfly span 2·stride ≤ B — are fused
//     into ONE pass over contiguous B-element tiles. A tile is loaded into
//     L1/L2 once, every small-stride stage is applied inside it, and it is
//     written back: log₂B stages for one pass of memory traffic.
//   - The remaining stages (stride ≥ B) are handled by a transposed-block
//     view: the vector becomes an (N/B)×B row matrix, a stage with stride
//     2^k pairs row r with row r ± 2^(k−log₂B), and groups of up to
//     fuseStages consecutive stages are fused by gathering the 2^m
//     interacting rows and sweeping them column-chunk by column-chunk, so
//     each chunk set stays cache-resident across the whole group.
//
// On top of the traversal change the production kernels strength-reduce the
// butterfly arithmetic: every mutation factor is symmetric ([[a,b],[b,a]]),
// and for the stochastic shape (a+b = 1) the pair update needs ONE multiply
// instead of four:
//
//	d = b·(t2−t1)  ⇒  (a·t1+b·t2, b·t1+a·t2) = (t1+d, t2−d)   for a+b = 1
//
// The reduced form is exact in real arithmetic and rounds differently by at
// most a few ULPs per stage, so blocked vs naive is compared under a tight
// tolerance (≤ 1 ULP of ‖v‖∞ per stage). Within the blocked family the
// dataflow is deterministic and worker-independent: every butterfly output
// depends on exactly two inputs and stages run in the same ascending order
// per interacting group, so the device kernels are BIT-IDENTICAL to the
// serial blocked path at every worker count — that equality is asserted
// exactly.
//
// Inner-loop discipline (the "kernel floor", DESIGN.md §5.6): every hot
// loop in this file is written so the compiler proves bounds-check
// elimination — the interacting lanes of a butterfly block are hoisted as
// exact-length subslices and every index is discharged against the loop
// bound — and runs 4-wide, four independent butterfly chains in flight per
// iteration so the out-of-order core overlaps their FP latencies. The
// unrolling never reorders the operation sequence OF ONE ELEMENT, only
// interleaves independent elements, so the unrolled kernels are
// bit-identical to their scalar forms (and therefore to the PR 1 kernels).
// CI enforces the no-new-bounds-checks invariant with a
// `-gcflags=-d=ssa/check_bce` lint against scripts/bce_allowlist.txt.

const (
	// tileBits fixes the tile at B = 2^12 float64s = 32 KiB: one more
	// butterfly stage is absorbed into the single L1/L2-resident tile pass,
	// which at ν ≥ 18 saves a full-vector cross pass — worth more than the
	// tighter L1 fit of a 16 KiB tile on every host measured. Tests reach
	// other tile sizes through the drivers' tb parameter.
	tileBits = 12
	// fuseStages is the number of large-stride stages fused per pass: 2^4
	// row streams per pass is the fewest-passes point that still keeps the
	// hardware prefetchers effective (16 concurrent streams).
	fuseStages = 4
	// maxFuseStages bounds the stack-allocated row-pointer array of a
	// fused cross-stage group.
	maxFuseStages = 4
	// minColChunk keeps the innermost column sweep long enough to
	// amortize loop overhead even for tiny tiles.
	minColChunk = 64
)

// splitStages returns the tile size B for a vector of length n and the
// number of leading stages of fs that are tile-local: stage i acts on bit
// off0+i with stride 2^(off0+i) and pairs elements within aligned
// 2^(off0+i+1) blocks, so it stays inside every aligned B-tile iff
// 2^(off0+i+1) ≤ B.
func splitStages(n, off0, nStages, tb int) (B, nSmall int) {
	B = 1 << uint(tb)
	if B > n {
		B = n
	}
	for nSmall < nStages && (2<<uint(off0+nSmall)) <= B {
		nSmall++
	}
	return B, nSmall
}

// applyStagesBlocked applies the single-bit butterfly stages fs — fs[i]
// acting on bit off0+i — to v in ascending stage order, using tiling for
// the small strides and fused row-block passes for the large ones. The
// result is bit-identical to applying the stages one full pass at a time.
func applyStagesBlocked(v []float64, off0 int, fs []Factor2, tb, fuse int) {
	applyStagesBlockedScaled(v, nil, nil, off0, fs, tb, fuse, nil)
}

// applyStagesBlockedScaled is applyStagesBlocked on v ← src ⊙ scale, or on
// v ← src when scale is nil and src is not: the first tile pass reads each
// tile from src (see firstTile), so neither the diagonal nor the copy costs
// a pass of its own. The elementwise products are those of a separate Mul
// pass, so the result is bit-identical to Mul (or copy) followed by
// applyStagesBlocked. A nil src means v is its own input; src may alias v. A
// non-nil src needs a tile pass: the caller guarantees fs[0] is tile-local
// (off0 = 0 and len(v) ≥ 2).
//
// A non-nil ep runs inside the last pass: on each column chunk of the last
// cross-stage group, or on each tile when the tile pass is the last pass.
// Elementwise, so bit-identical to running it as a pass afterwards.
func applyStagesBlockedScaled(v, src, scale []float64, off0 int, fs []Factor2, tb, fuse int, ep *Epilogue) {
	n := len(v)
	if n == 0 || len(fs) == 0 {
		return
	}
	if fuse < 1 {
		fuse = 1
	}
	if fuse > maxFuseStages {
		fuse = maxFuseStages
	}
	B, nSmall := splitStages(n, off0, len(fs), tb)
	if nSmall > 0 {
		small, tileEp := fs[:nSmall], lastPass(ep, nSmall == len(fs))
		for t := 0; t < n; t += B {
			firstTile(v, src, scale, t, t+B, off0, small)
			if tileEp != nil {
				tileEp.run(v, t, t+B)
			}
		}
	}
	for s := nSmall; s < len(fs); {
		m := len(fs) - s
		if m > fuse {
			m = fuse
		}
		crossStages(v, B, off0+s, fs[s:s+m], lastPass(ep, s+m == len(fs)))
		s += m
	}
}

// lastPass returns ep for the last pass of a segment and nil otherwise.
func lastPass(ep *Epilogue, last bool) *Epilogue {
	if last {
		return ep
	}
	return nil
}

// applyStagesBlockedDevice is applyStagesBlockedScaled with each fused
// pass dispatched as one device launch: tiles (resp. row groups) are
// mutually independent across the whole stage group, so a single barrier per
// group replaces the per-stage barrier of Algorithm 2. With a non-nil src
// the tile launch reads each tile from it (see firstTile); a non-nil ep runs
// in the last launch, on its tiles or column chunks.
func applyStagesBlockedDevice(d *device.Device, v, src, scale []float64, off0 int, fs []Factor2, tb, fuse int, ep *Epilogue) {
	n := len(v)
	if n == 0 || len(fs) == 0 {
		return
	}
	if fuse < 1 {
		fuse = 1
	}
	if fuse > maxFuseStages {
		fuse = maxFuseStages
	}
	B, nSmall := splitStages(n, off0, len(fs), tb)
	if nSmall > 0 {
		small, tileEp := fs[:nSmall], lastPass(ep, nSmall == len(fs))
		d.LaunchStages(n/B, B, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				firstTile(v, src, scale, t*B, (t+1)*B, off0, small)
				if tileEp != nil {
					tileEp.run(v, t*B, (t+1)*B)
				}
			}
		})
	}
	for s := nSmall; s < len(fs); {
		m := len(fs) - s
		if m > fuse {
			m = fuse
		}
		k0 := off0 + s
		group := fs[s : s+m]
		rb0 := k0 - log2(B)
		lowMask := 1<<uint(rb0) - 1
		nBases := (n >> uint(log2(B))) >> uint(m)
		groupEp := lastPass(ep, s+m == len(fs))
		d.LaunchStages(nBases, B<<uint(m), func(lo, hi int) {
			for bb := lo; bb < hi; bb++ {
				base := ((bb &^ lowMask) << uint(m)) | (bb & lowMask)
				crossGroup(v, B, base, rb0, group, groupEp)
			}
		})
		s += m
	}
}

// firstTile runs the tile pass on v[lo:hi]: when src is non-nil the tile is
// first loaded from src[lo:hi], times scale[lo:hi] when scale is non-nil;
// then the tile-local stages small (small[i] on bit off0+i) are applied.
// firstPass takes the load and the leading stages into one AVX2 sweep where
// it can, and tileStages continues from the first stage it left.
func firstTile(v, src, scale []float64, lo, hi, off0 int, small []Factor2) {
	tile := v[lo:hi]
	in, sc := tile, []float64(nil)
	if src != nil {
		in = src[lo:hi]
	}
	if scale != nil {
		sc = scale[lo:hi]
	}
	if done, rest := firstPass(tile, in, sc, off0, small); done > 0 {
		tileStages(tile, done, rest)
		return
	}
	switch {
	case sc != nil:
		vec.Mul(tile, in, sc)
	case src != nil:
		copy(tile, in)
	}
	tileStages(tile, off0, small)
}

// firstPass is the SIMD first tile pass (the avx512First* bodies on
// 32-element blocks where AVX-512 is on and the tile holds whole blocks, the
// avxFirst* bodies on 16-element blocks otherwise): tile ← in, times sc when
// sc is non-nil, then stages 0–1 and, when stages 2 and 3 are of the same
// kind, stages 2–3, all in registers per block. Stochastic stages run the S
// bodies and general ones the G bodies. It returns the number of stages
// applied and the stages left, or 0 when it does not apply: without AVX2,
// off the first bit, on a tile that is not a whole number of 16-element
// blocks, or when stages 0 and 1 differ in kind. Every element goes through
// the same Mul and bfly4s (resp. bfly4g) sequence as on the Go path, so the
// tiers are bit-identical.
func firstPass(tile, in, sc []float64, off0 int, fs []Factor2) (done int, rest []Factor2) {
	if !vec.UseAVX2() || off0 != 0 || len(tile) < 16 || len(tile)&15 != 0 || len(in) != len(tile) || len(fs) < 2 {
		return 0, fs
	}
	kind := butterflyKind(&fs[0])
	if butterflyKind(&fs[1]) != kind {
		return 0, fs
	}
	pairs, b3, b4 := 1, 0.0, 0.0
	done, rest = 2, fs[2:]
	if len(fs) >= 4 && butterflyKind(&fs[2]) == kind && butterflyKind(&fs[3]) == kind {
		pairs, b3, b4 = 2, fs[2].B, fs[3].B
		done, rest = 4, fs[4:]
	}
	var scp *float64
	if len(sc) > 0 {
		scp = &sc[0]
	}
	zmm := vec.UseAVX512() && len(tile)&31 == 0
	switch {
	case kind == kindGeneral && zmm:
		avx512FirstG(&tile[0], &in[0], scp, len(tile), pairs, &fs[0])
	case kind == kindGeneral:
		avxFirstG(&tile[0], &in[0], scp, len(tile), pairs, &fs[0])
	case zmm:
		avx512FirstS(&tile[0], &in[0], scp, len(tile), pairs, fs[0].B, fs[1].B, b3, b4)
	default:
		avxFirstS(&tile[0], &in[0], scp, len(tile), pairs, fs[0].B, fs[1].B, b3, b4)
	}
	return done, rest
}

// Butterfly kinds selected per stage by factor shape; the reduced form
// saves three of the four multiplies of the general 2×2 update.
const (
	kindGeneral    = iota // arbitrary [[a,b],[c,d]]
	kindStochastic        // symmetric with a+b = 1 (mutation factors)
)

// butterflyKind classifies f. The reduced form requires the defining
// identity to hold exactly in float64; anything else takes the general path.
func butterflyKind(f *Factor2) int {
	if f.C == f.B && f.D == f.A && f.A+f.B == 1 {
		return kindStochastic
	}
	return kindGeneral
}

// ---------------------------------------------------------------------------
// straight-line butterfly bodies
//
// bfly4s is the radix-4 pair update of the stochastic kind as a pure
// register function: four elements in, both stages applied, four out. The
// operation sequence is exactly that of two radix-2 passes (first-stage
// pair (e0,e1), (e2,e3); second-stage pair (e0,e2), (e1,e3)), which is the
// sequence every correctness test pins.

func bfly4s(e0, e1, e2, e3, b1, b2 float64) (float64, float64, float64, float64) {
	d := b1 * (e1 - e0)
	e0, e1 = e0+d, e1-d
	d = b1 * (e3 - e2)
	e2, e3 = e2+d, e3-d
	d = b2 * (e2 - e0)
	e0, e2 = e0+d, e2-d
	d = b2 * (e3 - e1)
	e1, e3 = e1+d, e3-d
	return e0, e1, e2, e3
}

// bfly4g is bfly4s for the general kind: stage [[a1,b1],[c1,d1]] on the
// pairs (e0,e1), (e2,e3), then stage [[a2,b2],[c2,d2]] on (e0,e2), (e1,e3),
// each butterfly the four-multiply u′ = a·t1 + b·t2, w′ = c·t1 + d·t2 of
// tileStage's general loop, so the fusion is bit-identical to two radix-2
// passes. The entries come as scalars, which keeps it inlinable.
func bfly4g(e0, e1, e2, e3, a1, b1, c1, d1, a2, b2, c2, d2 float64) (float64, float64, float64, float64) {
	e0, e1 = a1*e0+b1*e1, c1*e0+d1*e1
	e2, e3 = a1*e2+b1*e3, c1*e2+d1*e3
	e0, e2 = a2*e0+b2*e2, c2*e0+d2*e2
	e1, e3 = a2*e1+b2*e3, c2*e1+d2*e3
	return e0, e1, e2, e3
}

// tileStages applies stages fs (fs[i] on bit off0+i, all with
// 2·stride ≤ len(tile)) inside one cache-resident tile. Consecutive stage
// PAIRS of one kind run as one radix-4 pass (tilePair): four elements are
// loaded into registers, both stages applied, four stored — halving the
// load/store and loop traffic of the L1-resident sweep. The per-element
// rounding sequence is exactly that of two radix-2 passes, so the fusion is
// bit-identical to the unfused blocked path. Mixed-kind pairs and an odd
// last stage run radix-2.
func tileStages(tile []float64, off0 int, fs []Factor2) {
	s := 0
	for ; s+1 < len(fs); s += 2 {
		g := (*[2]Factor2)(fs[s : s+2])
		stride := 1 << uint(off0+s)
		if kind := butterflyKind(&g[0]); kind == butterflyKind(&g[1]) {
			tilePair(tile, stride, g, kind)
		} else {
			tileStage(tile, stride, &g[0])
			tileStage(tile, 2*stride, &g[1])
		}
	}
	if s < len(fs) {
		tileStage(tile, 1<<uint(off0+s), &fs[s])
	}
}

// tileStage applies one butterfly stage with the given stride inside a tile:
// each 2·stride block's two lanes are a stagePair, and stride 1 is a
// slice-advance loop of its own.
func tileStage(tile []float64, stride int, f *Factor2) {
	if stride > 1 {
		for j := 0; j+2*stride <= len(tile); j += 2 * stride {
			stagePair(tile[j:j+stride:j+stride], tile[j+stride:j+2*stride:j+2*stride], f)
		}
		return
	}
	// Slice-advance with constant indexes: the one loop form the go1.24
	// prover discharges completely (scripts/check_bce.sh).
	if butterflyKind(f) == kindStochastic {
		b := f.B
		for t := tile; len(t) >= 2; t = t[2:] {
			t1, t2 := t[0], t[1]
			d := b * (t2 - t1)
			t[0] = t1 + d
			t[1] = t2 - d
		}
		return
	}
	a, b, c, dd := f.A, f.B, f.C, f.D
	for t := tile; len(t) >= 2; t = t[2:] {
		t1, t2 := t[0], t[1]
		t[0] = a*t1 + b*t2
		t[1] = c*t1 + dd*t2
	}
}

// tilePair applies two consecutive stages of one kind, g[0] at stride and
// g[1] at 2·stride, in one radix-4 pass: on the avx{,512}TilePair{S,G}
// bodies from stride 4 on where AVX2 is on, else in Go over the four lanes
// of each 4·stride block (tileQuads{Stochastic,General} at strides 1 and
// 2).
func tilePair(tile []float64, stride int, g *[2]Factor2, kind int) {
	if vec.UseAVX2() && stride >= 4 && len(tile) >= 4*stride {
		// Same block/column traversal and per-element op sequence, eight
		// (AVX-512, stride ≥ 8) or four butterflies per instruction
		// (avx_amd64.s); the Go loops below likewise leave any partial
		// trailing block untouched.
		p, n := &tile[0], len(tile)&^(4*stride-1)
		zmm := vec.UseAVX512() && stride >= 8
		switch {
		case kind == kindGeneral && zmm:
			avx512TilePairG(p, n, stride, &g[0])
		case kind == kindGeneral:
			avxTilePairG(p, n, stride, &g[0])
		case zmm:
			avx512TilePairS(p, n, stride, g[0].B, g[1].B)
		default:
			avxTilePairS(p, n, stride, g[0].B, g[1].B)
		}
		return
	}
	switch {
	case stride <= 2 && kind == kindGeneral:
		tileQuadsGeneral(tile, stride, g)
	case stride <= 2:
		tileQuadsStochastic(tile, stride, g[0].B, g[1].B)
	default:
		// stride ≥ 4 (a power of two): hoist the four lanes of each
		// 4·stride block; a general pair runs them as a cross quad, a
		// stochastic one runs its column loop 4-wide in place.
		b1, b2 := g[0].B, g[1].B
		for j := 0; j+4*stride <= len(tile); j += 4 * stride {
			s0 := tile[j : j+stride : j+stride]
			s1 := tile[j+stride : j+2*stride : j+2*stride]
			s2 := tile[j+2*stride : j+3*stride : j+3*stride]
			s3 := tile[j+3*stride : j+4*stride : j+4*stride]
			if kind == kindGeneral {
				crossQuadGeneral(s0, s1, s2, s3, g)
				continue
			}
			for len(s0) >= 4 && len(s1) >= 4 && len(s2) >= 4 && len(s3) >= 4 {
				a0, a1, a2, a3 := bfly4s(s0[0], s1[0], s2[0], s3[0], b1, b2)
				c0, c1, c2, c3 := bfly4s(s0[1], s1[1], s2[1], s3[1], b1, b2)
				e0, e1, e2, e3 := bfly4s(s0[2], s1[2], s2[2], s3[2], b1, b2)
				g0, g1, g2, g3 := bfly4s(s0[3], s1[3], s2[3], s3[3], b1, b2)
				s0[0], s1[0], s2[0], s3[0] = a0, a1, a2, a3
				s0[1], s1[1], s2[1], s3[1] = c0, c1, c2, c3
				s0[2], s1[2], s2[2], s3[2] = e0, e1, e2, e3
				s0[3], s1[3], s2[3], s3[3] = g0, g1, g2, g3
				s0, s1, s2, s3 = s0[4:], s1[4:], s2[4:], s3[4:]
			}
			for len(s0) > 0 && len(s1) > 0 && len(s2) > 0 && len(s3) > 0 {
				s0[0], s1[0], s2[0], s3[0] = bfly4s(s0[0], s1[0], s2[0], s3[0], b1, b2)
				s0, s1, s2, s3 = s0[1:], s1[1:], s2[1:], s3[1:]
			}
		}
	}
}

// tileQuadsStochastic is tilePair's Go body for a stochastic pair at
// stride 1 or 2 (off-diagonal entries b1 and b2), where the four elements
// of a butterfly sit within eight consecutive ones.
func tileQuadsStochastic(tile []float64, stride int, b1, b2 float64) {
	if stride == 1 {
		// Contiguous quads: two independent butterflies per iteration.
		t := tile
		for len(t) >= 8 {
			a0, a1, a2, a3 := bfly4s(t[0], t[1], t[2], t[3], b1, b2)
			c0, c1, c2, c3 := bfly4s(t[4], t[5], t[6], t[7], b1, b2)
			t[0], t[1], t[2], t[3] = a0, a1, a2, a3
			t[4], t[5], t[6], t[7] = c0, c1, c2, c3
			t = t[8:]
		}
		if len(t) >= 4 {
			t[0], t[1], t[2], t[3] = bfly4s(t[0], t[1], t[2], t[3], b1, b2)
		}
		return
	}
	// Blocks of 8: butterflies (k, k+2, k+4, k+6) and (k+1, k+3, k+5, k+7).
	for t := tile; len(t) >= 8; t = t[8:] {
		a0, a1, a2, a3 := bfly4s(t[0], t[2], t[4], t[6], b1, b2)
		c0, c1, c2, c3 := bfly4s(t[1], t[3], t[5], t[7], b1, b2)
		t[0], t[2], t[4], t[6] = a0, a1, a2, a3
		t[1], t[3], t[5], t[7] = c0, c1, c2, c3
	}
}

// tileQuadsGeneral is tileQuadsStochastic for the general pair g, with
// bfly4g.
func tileQuadsGeneral(tile []float64, stride int, g *[2]Factor2) {
	a1, b1, c1, d1, a2, b2, c2, d2 := g[0].A, g[0].B, g[0].C, g[0].D, g[1].A, g[1].B, g[1].C, g[1].D
	if stride == 1 {
		t := tile
		for len(t) >= 8 {
			x0, x1, x2, x3 := bfly4g(t[0], t[1], t[2], t[3], a1, b1, c1, d1, a2, b2, c2, d2)
			y0, y1, y2, y3 := bfly4g(t[4], t[5], t[6], t[7], a1, b1, c1, d1, a2, b2, c2, d2)
			t[0], t[1], t[2], t[3] = x0, x1, x2, x3
			t[4], t[5], t[6], t[7] = y0, y1, y2, y3
			t = t[8:]
		}
		if len(t) >= 4 {
			t[0], t[1], t[2], t[3] = bfly4g(t[0], t[1], t[2], t[3], a1, b1, c1, d1, a2, b2, c2, d2)
		}
		return
	}
	for t := tile; len(t) >= 8; t = t[8:] {
		x0, x1, x2, x3 := bfly4g(t[0], t[2], t[4], t[6], a1, b1, c1, d1, a2, b2, c2, d2)
		y0, y1, y2, y3 := bfly4g(t[1], t[3], t[5], t[7], a1, b1, c1, d1, a2, b2, c2, d2)
		t[0], t[2], t[4], t[6] = x0, x1, x2, x3
		t[1], t[3], t[5], t[7] = y0, y1, y2, y3
	}
}

// crossStages applies a fused group of large-stride stages — fs[i] on bit
// k0+i with 2^k0 ≥ B — by enumerating the independent groups of 2^len(fs)
// interacting rows of the (n/B)×B row matrix; a non-nil ep runs on each
// finished column chunk (see crossGroup).
func crossStages(v []float64, B, k0 int, fs []Factor2, ep *Epilogue) {
	m := len(fs)
	rb0 := k0 - log2(B)
	lowMask := 1<<uint(rb0) - 1
	nBases := (len(v) >> uint(log2(B))) >> uint(m)
	for bb := 0; bb < nBases; bb++ {
		base := ((bb &^ lowMask) << uint(m)) | (bb & lowMask)
		crossGroup(v, B, base, rb0, fs, ep)
	}
}

// crossGroup applies the fused stages to one interacting set of 2^m rows
// (row t of the set has index baseRow | t<<rb0), sweeping column chunks so
// the working set of the whole group stays cache-resident. A non-nil ep
// (the last group of a transform only) runs on each row's chunk once all
// the group's stages have been applied to it, while it is still in cache.
func crossGroup(v []float64, B, baseRow, rb0 int, fs []Factor2, ep *Epilogue) {
	m := len(fs)
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
		// Stage pairs of one kind run radix-4 over the chunk (see
		// tileStages); odd or mixed-kind stages fall back to radix-2.
		s := 0
		for ; s+1 < m; s += 2 {
			g := (*[2]Factor2)(fs[s : s+2])
			kind := butterflyKind(&g[0])
			if kind != butterflyKind(&g[1]) {
				crossStage(rp[:size], c0, c1, s, &g[0])
				crossStage(rp[:size], c0, c1, s+1, &g[1])
				continue
			}
			bit1, bit2 := 1<<uint(s), 2<<uint(s)
			for t := 0; t < size; t++ {
				if t&(bit1|bit2) != 0 {
					continue
				}
				crossQuad(rp[t][c0:c1], rp[t|bit1][c0:c1],
					rp[t|bit2][c0:c1], rp[t|bit1|bit2][c0:c1], g, kind)
			}
		}
		if s < m {
			crossStage(rp[:size], c0, c1, s, &fs[s])
		}
		if ep != nil {
			for t := 0; t < size; t++ {
				lo := (baseRow|t<<uint(rb0))*B + c0
				ep.run(v, lo, lo+c1-c0)
			}
		}
	}
}

// crossQuad applies the fused stage pair g, both of the given kind,
// radix-4 across four gathered row chunks.
func crossQuad(r0, r1, r2, r3 []float64, g *[2]Factor2, kind int) {
	if kind == kindGeneral {
		crossQuadGeneral(r0, r1, r2, r3, g)
	} else {
		crossQuadStochastic(r0, r1, r2, r3, g[0].B, g[1].B)
	}
}

// crossQuadStochastic applies a fused pair of stochastic stages radix-4
// across four gathered row chunks: column i of the four rows is one
// butterfly, and the column loop runs 4-wide (eight-wide on AVX-512 from
// eight columns on).
func crossQuadStochastic(r0, r1, r2, r3 []float64, b1, b2 float64) {
	if vec.UseAVX2() {
		n := min(len(r0), len(r1), len(r2), len(r3)) &^ 3
		switch {
		case n >= 8 && vec.UseAVX512():
			avx512QuadS(&r0[0], &r1[0], &r2[0], &r3[0], n, b1, b2)
		case n > 0:
			avxQuadS(&r0[0], &r1[0], &r2[0], &r3[0], n, b1, b2)
		}
		r0, r1, r2, r3 = r0[n:], r1[n:], r2[n:], r3[n:]
	}
	for len(r0) >= 4 && len(r1) >= 4 && len(r2) >= 4 && len(r3) >= 4 {
		a0, a1, a2, a3 := bfly4s(r0[0], r1[0], r2[0], r3[0], b1, b2)
		c0, c1, c2, c3 := bfly4s(r0[1], r1[1], r2[1], r3[1], b1, b2)
		e0, e1, e2, e3 := bfly4s(r0[2], r1[2], r2[2], r3[2], b1, b2)
		g0, g1, g2, g3 := bfly4s(r0[3], r1[3], r2[3], r3[3], b1, b2)
		r0[0], r1[0], r2[0], r3[0] = a0, a1, a2, a3
		r0[1], r1[1], r2[1], r3[1] = c0, c1, c2, c3
		r0[2], r1[2], r2[2], r3[2] = e0, e1, e2, e3
		r0[3], r1[3], r2[3], r3[3] = g0, g1, g2, g3
		r0, r1, r2, r3 = r0[4:], r1[4:], r2[4:], r3[4:]
	}
	for len(r0) > 0 && len(r1) > 0 && len(r2) > 0 && len(r3) > 0 {
		r0[0], r1[0], r2[0], r3[0] = bfly4s(r0[0], r1[0], r2[0], r3[0], b1, b2)
		r0, r1, r2, r3 = r0[1:], r1[1:], r2[1:], r3[1:]
	}
}

// crossQuadGeneral is crossQuadStochastic for a fused pair of general
// stages g[0], g[1]: bfly4g per column, on avx{,512}QuadG where AVX2 is on.
func crossQuadGeneral(r0, r1, r2, r3 []float64, g *[2]Factor2) {
	if vec.UseAVX2() {
		n := min(len(r0), len(r1), len(r2), len(r3)) &^ 3
		switch {
		case n >= 8 && vec.UseAVX512():
			avx512QuadG(&r0[0], &r1[0], &r2[0], &r3[0], n, &g[0])
		case n > 0:
			avxQuadG(&r0[0], &r1[0], &r2[0], &r3[0], n, &g[0])
		}
		r0, r1, r2, r3 = r0[n:], r1[n:], r2[n:], r3[n:]
	}
	a1, b1, c1, d1, a2, b2, c2, d2 := g[0].A, g[0].B, g[0].C, g[0].D, g[1].A, g[1].B, g[1].C, g[1].D
	for len(r0) >= 4 && len(r1) >= 4 && len(r2) >= 4 && len(r3) >= 4 {
		x0, x1, x2, x3 := bfly4g(r0[0], r1[0], r2[0], r3[0], a1, b1, c1, d1, a2, b2, c2, d2)
		y0, y1, y2, y3 := bfly4g(r0[1], r1[1], r2[1], r3[1], a1, b1, c1, d1, a2, b2, c2, d2)
		z0, z1, z2, z3 := bfly4g(r0[2], r1[2], r2[2], r3[2], a1, b1, c1, d1, a2, b2, c2, d2)
		w0, w1, w2, w3 := bfly4g(r0[3], r1[3], r2[3], r3[3], a1, b1, c1, d1, a2, b2, c2, d2)
		r0[0], r1[0], r2[0], r3[0] = x0, x1, x2, x3
		r0[1], r1[1], r2[1], r3[1] = y0, y1, y2, y3
		r0[2], r1[2], r2[2], r3[2] = z0, z1, z2, z3
		r0[3], r1[3], r2[3], r3[3] = w0, w1, w2, w3
		r0, r1, r2, r3 = r0[4:], r1[4:], r2[4:], r3[4:]
	}
	for len(r0) > 0 && len(r1) > 0 && len(r2) > 0 && len(r3) > 0 {
		r0[0], r1[0], r2[0], r3[0] = bfly4g(r0[0], r1[0], r2[0], r3[0], a1, b1, c1, d1, a2, b2, c2, d2)
		r0, r1, r2, r3 = r0[1:], r1[1:], r2[1:], r3[1:]
	}
}

// crossStage applies one radix-2 stage (row bit s) over the column chunk
// [c0, c1) of the gathered rows: each row pair is a stagePair.
func crossStage(rp [][]float64, c0, c1, s int, f *Factor2) {
	bit := 1 << uint(s)
	for t := 0; t < len(rp); t++ {
		if t&bit != 0 {
			continue
		}
		stagePair(rp[t][c0:c1], rp[t|bit][c0:c1], f)
	}
}

// stagePair applies one radix-2 stage with factor f to the lane pair
// (u, w), element i of each forming one butterfly: the lone stage of a tile
// or a cross group, and each stage of a mixed-kind pair. On AVX2 either kind
// runs four butterflies per instruction (avxPairS, avxPairG), on AVX-512
// eight from eight columns on (avx512PairS, avx512PairG), with the 4-wide
// Go loop on the sub-vector tail and everywhere without AVX2.
func stagePair(u, w []float64, f *Factor2) {
	kind := butterflyKind(f)
	if n := len(u) &^ 3; vec.UseAVX2() && n > 0 && n <= len(w) {
		zmm := n >= 8 && vec.UseAVX512()
		switch {
		case kind == kindGeneral && zmm:
			avx512PairG(&u[0], &w[0], n, f)
		case kind == kindGeneral:
			avxPairG(&u[0], &w[0], n, f)
		case zmm:
			avx512PairS(&u[0], &w[0], n, f.B)
		default:
			avxPairS(&u[0], &w[0], n, f.B)
		}
		u, w = u[n:], w[n:]
	}
	if kind == kindStochastic {
		b := f.B
		for len(u) >= 4 && len(w) >= 4 {
			t1a, t2a := u[0], w[0]
			t1b, t2b := u[1], w[1]
			t1c, t2c := u[2], w[2]
			t1d, t2d := u[3], w[3]
			da := b * (t2a - t1a)
			db := b * (t2b - t1b)
			dc := b * (t2c - t1c)
			dd := b * (t2d - t1d)
			u[0], w[0] = t1a+da, t2a-da
			u[1], w[1] = t1b+db, t2b-db
			u[2], w[2] = t1c+dc, t2c-dc
			u[3], w[3] = t1d+dd, t2d-dd
			u, w = u[4:], w[4:]
		}
		for len(u) > 0 && len(w) > 0 {
			t1, t2 := u[0], w[0]
			d := b * (t2 - t1)
			u[0] = t1 + d
			w[0] = t2 - d
			u, w = u[1:], w[1:]
		}
		return
	}
	a, b, c, dd := f.A, f.B, f.C, f.D
	for len(u) >= 4 && len(w) >= 4 {
		t1a, t2a := u[0], w[0]
		t1b, t2b := u[1], w[1]
		t1c, t2c := u[2], w[2]
		t1d, t2d := u[3], w[3]
		u[0], w[0] = a*t1a+b*t2a, c*t1a+dd*t2a
		u[1], w[1] = a*t1b+b*t2b, c*t1b+dd*t2b
		u[2], w[2] = a*t1c+b*t2c, c*t1c+dd*t2c
		u[3], w[3] = a*t1d+b*t2d, c*t1d+dd*t2d
		u, w = u[4:], w[4:]
	}
	for len(u) > 0 && len(w) > 0 {
		t1, t2 := u[0], w[0]
		u[0] = a*t1 + b*t2
		w[0] = c*t1 + dd*t2
		u, w = u[1:], w[1:]
	}
}

// colChunkFor sizes the column sweep so that size rows × chunk columns of
// float64s stay near 32 KiB.
func colChunkFor(size, B int) int {
	c := 4096 / size
	if c < minColChunk {
		c = minColChunk
	}
	if c > B {
		c = B
	}
	return c
}

// log2 returns log₂(n) for a power-of-two n.
func log2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}
