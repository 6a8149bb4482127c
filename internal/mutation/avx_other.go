//go:build !amd64

package mutation

// Non-amd64 builds always take the pure-Go kernel paths; the stubs below
// exist only to satisfy the dispatch call sites, which are all guarded by
// vec.UseAVX2 or vec.UseAVX512.

func avxQuadS(r0, r1, r2, r3 *float64, n int, b1, b2 float64) {
	panic("mutation: avxQuadS called without AVX2")
}

func avxQuadH(r0, r1, r2, r3 *float64, n int) {
	panic("mutation: avxQuadH called without AVX2")
}

func avxTilePairS(p *float64, n, stride int, b1, b2 float64) {
	panic("mutation: avxTilePairS called without AVX2")
}

func avxTileHad(p *float64, n, stride int) {
	panic("mutation: avxTileHad called without AVX2")
}

func avxFirstS(dst, src, scale *float64, n, pairs int, b1, b2, b3, b4 float64) {
	panic("mutation: avxFirstS called without AVX2")
}

func avxPairS(u, w *float64, n int, b float64) {
	panic("mutation: avxPairS called without AVX2")
}

func avx512FirstS(dst, src, scale *float64, n, pairs int, b1, b2, b3, b4 float64) {
	panic("mutation: avx512FirstS called without AVX-512")
}

func avx512TilePairS(p *float64, n, stride int, b1, b2 float64) {
	panic("mutation: avx512TilePairS called without AVX-512")
}

func avx512QuadS(r0, r1, r2, r3 *float64, n int, b1, b2 float64) {
	panic("mutation: avx512QuadS called without AVX-512")
}

func avx512PairS(u, w *float64, n int, b float64) {
	panic("mutation: avx512PairS called without AVX-512")
}
