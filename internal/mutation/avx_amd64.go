//go:build amd64

package mutation

// The hot butterfly kernels dispatch to the AVX2 assembly in avx_amd64.s
// when the CPU supports it: Go's compiler never auto-vectorizes, so the
// 4-wide Go loops execute one scalar FP op per element while the machine
// has 4-lane float64 units sitting idle — on compute-bound hosts that is
// the whole remaining gap to the hardware floor. The assembly applies the
// identical per-element operation sequence with VADDPD/VSUBPD/VMULPD only
// (per-lane IEEE-754 semantics, no FMA contraction), so results are
// bit-identical to the pure-Go path; TestAVX2KernelsBitIdenticalToScalar
// asserts that equality directly and the exact-equality transform suites
// (blocked FWHT ≡ naive, fused ≡ radix-2) run against whichever path is
// active.
//
// The dispatch gates are internal/vec's (vec.UseAVX2, vec.UseAVX512): one
// CPUID/XGETBV check for the butterflies and the vector kernels around
// them, and QS_NOAVX2=1 forces the pure-Go bodies of both. Where AVX-512
// is on, the four stochastic bodies run eight butterflies per instruction
// (the avx512* twins below) on the shapes that fill a ZMM register, and the
// AVX2 bodies take the rest.

// The assembly kernels. n counts float64 elements and must be a positive
// multiple of 4 (quad forms) resp. of 4·stride (tile forms, stride ≥ 4 a
// multiple of 4); callers guarantee both. go:noescape keeps the slice
// bases off the heap so the kernels stay allocation-free.

//go:noescape
func avxQuadS(r0, r1, r2, r3 *float64, n int, b1, b2 float64)

//go:noescape
func avxQuadH(r0, r1, r2, r3 *float64, n int)

//go:noescape
func avxTilePairS(p *float64, n, stride int, b1, b2 float64)

//go:noescape
func avxTileHad(p *float64, n, stride int)

// The stochastic first-pass kernel: dst[:n] ← src[:n] (⊙ scale[:n] when
// scale is non-nil), then one (pairs = 1) or two (pairs = 2) radix-4 stage
// pairs at strides 1–2 and 4–8. n is a positive multiple of 16; dst may
// equal src.
//
//go:noescape
func avxFirstS(dst, src, scale *float64, n, pairs int, b1, b2, b3, b4 float64)

// The stochastic radix-2 cross body: one stage across two row chunks of n
// elements, n a positive multiple of 4.
//
//go:noescape
func avxPairS(u, w *float64, n int, b float64)

// The AVX-512 twins of avxFirstS, avxTilePairS, avxQuadS and avxPairS: the
// same arguments and per-element sequence, eight lanes wide. avx512FirstS
// needs n a positive multiple of 32 and avx512TilePairS stride ≥ 8 a
// multiple of 8; avx512QuadS and avx512PairS take any positive multiple of
// 4, running a last four columns on YMM.

//go:noescape
func avx512FirstS(dst, src, scale *float64, n, pairs int, b1, b2, b3, b4 float64)

//go:noescape
func avx512TilePairS(p *float64, n, stride int, b1, b2 float64)

//go:noescape
func avx512QuadS(r0, r1, r2, r3 *float64, n int, b1, b2 float64)

//go:noescape
func avx512PairS(u, w *float64, n int, b float64)
