package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("dense: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U, with L
// unit lower triangular and U upper triangular, both packed into lu.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factorize computes the LU factorization of the square matrix a with
// partial (row) pivoting. a is not modified. It returns ErrSingular when a
// pivot column is exactly zero; near-singular systems succeed here and
// surface as large residuals for the caller to judge.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("dense: Factorize needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, best := k, math.Abs(lu.At(k, k))
		for r := k + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, k)); v > best {
				p, best = r, v
			}
		}
		pivot[k] = p
		if best == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for c := range rk {
				rk[c], rp[c] = rp[c], rk[c]
			}
		}
		inv := 1 / lu.At(k, k)
		for r := k + 1; r < n; r++ {
			l := lu.At(r, k) * inv
			lu.Set(r, k, l)
			if l == 0 {
				continue
			}
			rr, rk := lu.Row(r), lu.Row(k)
			for c := k + 1; c < n; c++ {
				rr[c] -= l * rk[c]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve computes x with A·x = b into dst (dst may alias b).
func (f *LU) Solve(dst, b []float64) {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		panic("dense: LU.Solve length mismatch")
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	// Apply row permutation.
	for k, p := range f.pivot {
		if p != k {
			dst[k], dst[p] = dst[p], dst[k]
		}
	}
	// Forward substitution with unit L.
	for r := 1; r < n; r++ {
		row := f.lu.Row(r)
		s := dst[r]
		for c := 0; c < r; c++ {
			s -= row[c] * dst[c]
		}
		dst[r] = s
	}
	// Back substitution with U.
	for r := n - 1; r >= 0; r-- {
		row := f.lu.Row(r)
		s := dst[r]
		for c := r + 1; c < n; c++ {
			s -= row[c] * dst[c]
		}
		dst[r] = s / row[r]
	}
}
