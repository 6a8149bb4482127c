package dense

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Dense routines that only the tests use: the determinant, the inverse,
// inverse iteration and the transposed product.

// det returns the determinant of the factorized matrix: the product of
// U's diagonal, negated once per row swap of P.
func (f *LU) det() float64 {
	d := 1.0
	for i := 0; i < f.lu.Rows; i++ {
		if f.pivot[i] != i {
			d = -d
		}
		d *= f.lu.At(i, i)
	}
	return d
}

// inverse returns A⁻¹ of the matrix a, via LU factorization.
func inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	col := make([]float64, n)
	for c := 0; c < n; c++ {
		for i := range e {
			e[i] = 0
		}
		e[c] = 1
		f.Solve(col, e)
		for r := 0; r < n; r++ {
			inv.Set(r, c, col[r])
		}
	}
	return inv, nil
}

// inverseIteration computes the eigenpair of a nearest to the shift sigma
// by inverse iteration on (A − σI). The returned eigenvector has unit
// 2-norm. Convergence is measured by the residual of the original matrix.
func inverseIteration(a *Matrix, sigma float64, opts *DominantOptions) (lambda float64, x []float64, iters int, err error) {
	if a.Rows != a.Cols {
		return 0, nil, 0, fmt.Errorf("dense: inverseIteration needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	tol, maxIter, start := opts.defaults(n)
	shifted := a.Clone()
	shifted.AddDiag(-sigma)
	f, ferr := Factorize(shifted)
	if ferr != nil {
		// σ is (numerically) an exact eigenvalue: perturb it slightly.
		shifted = a.Clone()
		eps := math.Max(math.Abs(sigma), 1) * 1e-12
		shifted.AddDiag(-(sigma + eps))
		if f, ferr = Factorize(shifted); ferr != nil {
			return 0, nil, 0, ferr
		}
	}
	x = vec.Clone(start)
	vec.Normalize2(x)
	w := make([]float64, n)
	for iters = 1; iters <= maxIter; iters++ {
		f.Solve(w, x)
		nrm := vec.Norm2(w)
		if nrm == 0 || math.IsInf(nrm, 0) || math.IsNaN(nrm) {
			return 0, nil, iters, ErrSingular
		}
		for i := range x {
			x[i] = w[i] / nrm
		}
		a.MatVec(w, x)
		lambda = vec.Dot(x, w)
		var rs float64
		for i, wi := range w {
			r := wi - lambda*x[i]
			rs += r * r
		}
		if math.Sqrt(rs) <= tol*math.Max(1, math.Abs(lambda)) {
			orient(x)
			return lambda, x, iters, nil
		}
	}
	orient(x)
	return lambda, x, maxIter, ErrNoConvergence
}

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
