package dense

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// ErrNoConvergence is returned when an iterative eigensolver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("dense: eigensolver did not converge")

// DominantOptions configures the dense dominant-eigenpair solvers.
type DominantOptions struct {
	Tol     float64 // residual tolerance on ‖Ax − λx‖₂ / ‖x‖₂ (default 1e-13)
	MaxIter int     // iteration budget (default 100000)
	Start   []float64
}

func (o *DominantOptions) defaults(n int) (tol float64, maxIter int, start []float64) {
	tol = 1e-13
	maxIter = 100000
	if o != nil {
		if o.Tol > 0 {
			tol = o.Tol
		}
		if o.MaxIter > 0 {
			maxIter = o.MaxIter
		}
		start = o.Start
	}
	if start == nil {
		start = make([]float64, n)
		vec.Fill(start, 1/float64(n))
	}
	return tol, maxIter, start
}

// Dominant computes the dominant eigenpair (λ, x) of the square matrix a
// using the power method with Rayleigh-quotient estimates. The returned
// eigenvector has unit 2-norm and non-negative orientation of its largest
// component. For the non-negative irreducible matrices of the quasispecies
// model the dominant eigenvalue is simple (Perron–Frobenius) and the
// iteration is globally convergent from any positive start vector.
func Dominant(a *Matrix, opts *DominantOptions) (lambda float64, x []float64, iters int, err error) {
	if a.Rows != a.Cols {
		return 0, nil, 0, fmt.Errorf("dense: Dominant needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	tol, maxIter, start := opts.defaults(n)
	x = vec.Clone(start)
	if vec.Norm2(x) == 0 {
		return 0, nil, 0, errors.New("dense: Dominant start vector is zero")
	}
	vec.Normalize2(x)
	w := make([]float64, n)
	for iters = 1; iters <= maxIter; iters++ {
		a.MatVec(w, x)
		lambda = vec.Dot(x, w) // Rayleigh quotient for unit x
		// residual ‖w − λx‖₂
		var rs float64
		for i, wi := range w {
			r := wi - lambda*x[i]
			rs += r * r
		}
		if math.Sqrt(rs) <= tol*math.Max(1, math.Abs(lambda)) {
			orient(x)
			return lambda, x, iters, nil
		}
		nrm := vec.Norm2(w)
		if nrm == 0 {
			return 0, nil, iters, errors.New("dense: Dominant hit the zero vector (nilpotent direction)")
		}
		for i := range x {
			x[i] = w[i] / nrm
		}
	}
	orient(x)
	return lambda, x, maxIter, ErrNoConvergence
}

// orient flips the sign of x so that its absolutely largest component is
// positive, fixing the sign ambiguity of eigenvectors.
func orient(x []float64) {
	idx, m := 0, 0.0
	for i, v := range x {
		if a := math.Abs(v); a > m {
			idx, m = i, a
		}
	}
	if x[idx] < 0 {
		vec.Scale(x, -1)
	}
}

// JacobiEigen computes the full eigendecomposition of the symmetric matrix
// a using the cyclic Jacobi method: A = V·diag(λ)·Vᵀ with orthonormal
// columns of V. Eigenvalues are returned in descending order. The input
// must be symmetric; asymmetry beyond 1e-12·‖A‖∞ is reported as an error.
func JacobiEigen(a *Matrix, tol float64) (eigenvalues []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("dense: JacobiEigen needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	if !a.IsSymmetric(1e-12 * scale) {
		return nil, nil, errors.New("dense: JacobiEigen requires a symmetric matrix")
	}
	if tol <= 0 {
		tol = 1e-14
	}
	n := a.Rows
	m := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(m)
		if off <= tol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= tol*scale*1e-3 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				// Stable rotation computation (Golub & Van Loan §8.4).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(m, v, p, q, c, s)
			}
		}
	}
	if off := offDiagNorm(m); off > math.Sqrt(tol)*scale {
		return nil, nil, ErrNoConvergence
	}
	// Extract and sort eigenpairs (descending).
	eigenvalues = make([]float64, n)
	for i := 0; i < n; i++ {
		eigenvalues[i] = m.At(i, i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small (ν+1)
		for j := i; j > 0 && eigenvalues[order[j]] > eigenvalues[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for c, idx := range order {
		sortedVals[c] = eigenvalues[idx]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, c, v.At(r, idx))
		}
	}
	return sortedVals, sortedVecs, nil
}

func offDiagNorm(m *Matrix) float64 {
	var s float64
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			v := m.At(r, c)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}

// applyJacobiRotation applies the rotation J(p,q,θ) to m (two-sided) and
// accumulates it into v (one-sided).
func applyJacobiRotation(m, v *Matrix, p, q int, c, s float64) {
	n := m.Rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for i := 0; i < n; i++ {
		mpi, mqi := m.At(p, i), m.At(q, i)
		m.Set(p, i, c*mpi-s*mqi)
		m.Set(q, i, s*mpi+c*mqi)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}
