//go:build amd64

package vec

// Go never auto-vectorizes, so a 4-lane Go loop executes one scalar FP op
// per element while the machine's float64 vector units sit idle. The
// kernels therefore dispatch to the assembly in avx_amd64.s (and
// internal/mutation's butterflies to theirs) when the CPU and OS support
// it; QS_NOAVX2=1 forces the Go bodies (diagnostics and A/B timing).

// detectedTier is the widest tier CPUID and XGETBV allow.
var detectedTier = detectTier()

// detectTier is the standard CPUID/XGETBV dance. AVX needs OSXSAVE and
// XMM+YMM state enabled by the OS in XCR0, AVX2 is leaf-7 EBX bit 5;
// AVX-512 needs AVX512F (leaf-7 EBX bit 16) and the opmask, ZMM_Hi256 and
// Hi16_ZMM state (XCR0 bits 5–7) on top.
func detectTier() Tier {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return TierGo
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if c&osxsaveBit == 0 || c&avxBit == 0 {
		return TierGo
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state
		return TierGo
	}
	_, b, _, _ := cpuid(7, 0)
	if b&(1<<5) == 0 {
		return TierGo
	}
	if b&(1<<16) == 0 || xcr0&0xe0 != 0xe0 { // AVX512F; opmask and ZMM state
		return TierAVX2
	}
	return TierAVX512
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The assembly kernels. n counts float64 elements and must be a positive
// multiple of 4; the Go callers guarantee it and fold the tail themselves.
// go:noescape keeps the operands off the heap, so the kernels stay
// allocation-free.

//go:noescape
func avxDot(x, y *float64, n int) float64

//go:noescape
func avxShiftedDotSumSq(x, w *float64, n int, a float64) (dot, ssq float64)

//go:noescape
func avxShiftedResidualSumSq(x, w *float64, n int, a, lambda, c float64) float64

//go:noescape
func avxLanczosTail(dst, w, v, u *float64, n int, c, alpha, beta float64) float64

//go:noescape
func avxSumSqLanes(acc *[4]float64, x *float64, n int)

//go:noescape
func avxAXPY(a float64, x, y *float64, n int)

//go:noescape
func avxMul(dst, x, y *float64, n int)

//go:noescape
func avxScale(x *float64, n int, a float64)

//go:noescape
func avxNorm1(x *float64, n int) float64

//go:noescape
func avxMaxAbs(x *float64, n int) float64

//go:noescape
func avxConcentrationScan(lanes *[3][4]float64, x *float64, n int)

//go:noescape
func avxClampScale(x *float64, n int, a float64)

//go:noescape
func avxFitErrors(x, h1, h2, h3 *float64, n int, w *[5]float64) (e1, e2, e3 float64)

//go:noescape
func avxExtrapolate(x, h1, h2, h3 *float64, n, k int, l *[4]float64)
