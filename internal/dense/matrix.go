// Package dense implements the small dense linear-algebra substrate the
// solver needs: a row-major matrix type with matrix–vector products (the
// Smvp baseline of the paper), a Jacobi eigensolver for symmetric
// matrices and a dominant-eigenpair power method for small general
// matrices, the one solver of the reduced problems.
//
// Dense storage grows as Θ(N²) and is only viable for small chain lengths;
// that is precisely the point of the paper, and this package exists both as
// the reference baseline (Figures 2–4) and as the solver for the reduced
// (ν+1)×(ν+1) problems of Section 5.1.
package dense

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Matrix is a row-major dense matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c] = A[r][c]
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: invalid shape %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for r, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("dense: ragged row %d: %d vs %d", r, len(row), c))
		}
		copy(m.Data[r*c:(r+1)*c], row)
	}
	return m
}

// At returns A[r][c].
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns A[r][c] = v.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatVec computes dst ← A·x. dst must not alias x. This is the standard
// Θ(N²) matrix–vector product, the paper's Smvp baseline.
func (m *Matrix) MatVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("dense: MatVec shape mismatch: %d×%d by %d into %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var s float64
		for c, a := range row {
			s += a * x[c]
		}
		dst[r] = s
	}
}

// Mul returns the product A·B.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul shape mismatch %d×%d by %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for r := 0; r < m.Rows; r++ {
		arow := m.Row(r)
		orow := out.Row(r)
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			for c, bv := range brow {
				orow[c] += a * bv
			}
		}
	}
	return out
}

// ScaleColumns multiplies column c by d[c] in place: A ← A·diag(d).
func (m *Matrix) ScaleColumns(d []float64) {
	if len(d) != m.Cols {
		panic("dense: ScaleColumns length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] *= d[c]
		}
	}
}

// ScaleRows multiplies row r by d[r] in place: A ← diag(d)·A.
func (m *Matrix) ScaleRows(d []float64) {
	if len(d) != m.Rows {
		panic("dense: ScaleRows length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		vec.Scale(m.Row(r), d[r])
	}
}

// Transpose returns Aᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

// Kronecker returns the Kronecker product A ⊗ B.
func (m *Matrix) Kronecker(b *Matrix) *Matrix {
	out := NewMatrix(m.Rows*b.Rows, m.Cols*b.Cols)
	for ra := 0; ra < m.Rows; ra++ {
		for ca := 0; ca < m.Cols; ca++ {
			a := m.At(ra, ca)
			if a == 0 {
				continue
			}
			for rb := 0; rb < b.Rows; rb++ {
				orow := out.Row(ra*b.Rows + rb)
				brow := b.Row(rb)
				base := ca * b.Cols
				for cb, bv := range brow {
					orow[base+cb] += a * bv
				}
			}
		}
	}
	return out
}

// IsSymmetric reports whether |A − Aᵀ|∞ ≤ tol elementwise.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		for c := r + 1; c < m.Cols; c++ {
			if math.Abs(m.At(r, c)-m.At(c, r)) > tol {
				return false
			}
		}
	}
	return true
}

// ColumnSums returns the vector of column sums; a column-stochastic matrix
// has all column sums equal to 1.
func (m *Matrix) ColumnSums() []float64 {
	s := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			s[c] += v
		}
	}
	return s
}

// MaxAbs returns the largest absolute entry of the matrix.
func (m *Matrix) MaxAbs() float64 {
	return vec.NormInf(m.Data)
}

// String renders small matrices for debugging; large matrices are elided.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("dense.Matrix(%d×%d)", m.Rows, m.Cols)
	}
	s := ""
	for r := 0; r < m.Rows; r++ {
		s += fmt.Sprintf("%v\n", m.Row(r))
	}
	return s
}
