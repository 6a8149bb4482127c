package dense

import "repro/internal/vec"

// The transposed product, a dense routine that only the tests use.

// matVecT computes dst ← Aᵀ·x. dst must not alias x.
func (m *Matrix) matVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("dense: matVecT shape mismatch")
	}
	vec.Fill(dst, 0)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		xv := x[r]
		for c, a := range row {
			dst[c] += a * xv
		}
	}
}
