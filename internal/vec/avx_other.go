//go:build !amd64

package vec

// Non-amd64 builds always take the Go kernel bodies; the stubs below exist
// only to satisfy the dispatch call sites, which are all guarded by
// useAVX2.

var detectedTier = TierGo

func avxDot(x, y *float64, n int) float64 {
	panic("vec: avxDot called without AVX2")
}

func avxShiftedDotSumSq(x, w *float64, n int, a float64) (dot, ssq float64) {
	panic("vec: avxShiftedDotSumSq called without AVX2")
}

func avxShiftedResidualSumSq(x, w *float64, n int, a, lambda, c float64) float64 {
	panic("vec: avxShiftedResidualSumSq called without AVX2")
}

func avxLanczosTail(dst, w, v, u *float64, n int, c, alpha, beta float64) float64 {
	panic("vec: avxLanczosTail called without AVX2")
}

func avxSumSqLanes(acc *[4]float64, x *float64, n int) {
	panic("vec: avxSumSqLanes called without AVX2")
}

func avxAXPY(a float64, x, y *float64, n int) {
	panic("vec: avxAXPY called without AVX2")
}

func avxMul(dst, x, y *float64, n int) {
	panic("vec: avxMul called without AVX2")
}

func avxScale(x *float64, n int, a float64) {
	panic("vec: avxScale called without AVX2")
}

func avxNorm1Lanes(acc *[4]float64, x *float64, n int) {
	panic("vec: avxNorm1Lanes called without AVX2")
}

func avxMaxAbs(x *float64, n int) float64 {
	panic("vec: avxMaxAbs called without AVX2")
}

func avxConcentrationScan(lanes *[3][4]float64, x *float64, n int) {
	panic("vec: avxConcentrationScan called without AVX2")
}

func avxClampScale(x *float64, n int, a float64) {
	panic("vec: avxClampScale called without AVX2")
}

func avxFitErrors(x, h1, h2, h3 *float64, n int, w *[5]float64) (e1, e2, e3 float64) {
	panic("vec: avxFitErrors called without AVX2")
}

func avxExtrapolate(x, h1, h2, h3 *float64, n, k int, l *[4]float64) {
	panic("vec: avxExtrapolate called without AVX2")
}
