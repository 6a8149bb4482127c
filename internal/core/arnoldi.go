package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/vec"
)

// This file implements restarted Arnoldi iteration, the Krylov method for
// the *non-symmetric* formulations. The paper's generalized mutation
// processes (Section 2.2) can make W = Q·F non-symmetrizable — asymmetric
// per-site factors break Q's symmetry — so Lanczos no longer applies;
// Arnoldi is the standard replacement, at the cost of a full (not
// tridiagonal) projected matrix and full orthogonalization.
//
// Because W is non-negative and irreducible, the dominant eigenvalue is
// real and simple (Perron–Frobenius), so the dominant Ritz pair of the
// small Hessenberg matrix is safely extracted with the dense real
// power method.

const (
	// arnoldiBasis is the Krylov basis per restart cycle (clamped to the
	// dimension).
	arnoldiBasis = 24
	// arnoldiMaxRestarts caps the restart cycles.
	arnoldiMaxRestarts = 1000
	// arnoldiStallRestarts restarts without improvement end the solve as
	// stagnated.
	arnoldiStallRestarts = 10
)

// ArnoldiOptions configures the restarted Arnoldi solver.
type ArnoldiOptions struct {
	// Tol is the residual threshold on ‖W·x − λ·x‖₂. Default 1e-13.
	Tol float64
	// Start is the starting vector (copied). Default: uniform.
	Start []float64
}

// ArnoldiResult is the outcome of the Arnoldi solver.
type ArnoldiResult struct {
	Lambda    float64
	Vector    []float64
	MatVecs   int
	Restarts  int
	Residual  float64
	Converged bool
}

// Arnoldi computes the dominant eigenpair of op (any square operator, no
// symmetry required) with restarted Arnoldi and modified Gram–Schmidt
// orthogonalization.
func Arnoldi(op Operator, opts ArnoldiOptions) (ArnoldiResult, error) {
	n := op.Dim()
	tol := tolerance(opts.Tol)
	m := min(arnoldiBasis, n)

	q := device.AllocVector(n)
	if err := loadStart(nil, q, opts.Start); err != nil {
		return ArnoldiResult{}, err
	}

	basis := make([][]float64, m)
	for i := range basis {
		basis[i] = device.AllocVector(n)
	}
	h := dense.NewMatrix(m, m)
	w := device.AllocVector(n)

	led := openLedger(SolveKindArnoldi, n, nil, 0, tol, arnoldiStallRestarts)
	res := ArnoldiResult{}
	for restart := 0; restart < arnoldiMaxRestarts; restart++ {
		res.Restarts = restart + 1
		for i := range h.Data {
			h.Data[i] = 0
		}
		copy(basis[0], q)
		k := 0
		for j := 0; j < m; j++ {
			op.Apply(w, basis[j])
			res.MatVecs++
			// Modified Gram–Schmidt against the whole basis.
			for t := 0; t <= j; t++ {
				c := vec.Dot(basis[t], w)
				h.Set(t, j, c)
				vec.AXPY(-c, basis[t], w)
			}
			// One reorthogonalization pass for robustness.
			for t := 0; t <= j; t++ {
				c := vec.Dot(basis[t], w)
				if c != 0 {
					h.Set(t, j, h.At(t, j)+c)
					vec.AXPY(-c, basis[t], w)
				}
			}
			k = j + 1
			b := vec.Norm2(w)
			if j+1 < m {
				if b < 1e-300 {
					break // invariant subspace
				}
				h.Set(j+1, j, b)
				for i := range w {
					basis[j+1][i] = w[i] / b
				}
			}
		}
		// Dominant Ritz pair of the k×k upper-left block of H.
		hk := dense.NewMatrix(k, k)
		for r := 0; r < k; r++ {
			copy(hk.Row(r), h.Row(r)[:k])
		}
		lam, y, _, err := dense.Dominant(hk, &dense.DominantOptions{Tol: 1e-13, MaxIter: 200000})
		if err != nil && !errors.Is(err, dense.ErrNoConvergence) {
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, fmt.Errorf("core: Hessenberg eigensolve failed: %w", err)
		}
		res.Lambda = lam
		vec.Fill(q, 0)
		for j := 0; j < k; j++ {
			vec.AXPY(y[j], basis[j], q)
		}
		nrm := vec.Norm2(q)
		if nrm == 0 {
			return res, led.fail(EventBreakdown,
				fmt.Sprintf("zero Ritz vector at restart %d", res.Restarts),
				res.MatVecs, res.Lambda, res.Residual)
		}
		vec.Scale(q, 1/nrm)
		op.Apply(w, q)
		res.MatVecs++
		var rs float64
		for i, wi := range w {
			r := wi - lam*q[i]
			rs += r * r
		}
		res.Residual = math.Sqrt(rs)
		stalled := led.check(res.MatVecs, lam, res.Residual)
		if res.Residual <= tol {
			res.Converged = true
			orientPositive(q)
			res.Vector = q
			led.end(EventConverged, res.MatVecs, lam, res.Residual)
			return res, nil
		}
		if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
			// A non-finite Ritz pair restarts from a non-finite vector:
			// every later cycle would be the same.
			orientPositive(q)
			res.Vector = q
			return res, led.fail(EventBreakdown,
				fmt.Sprintf("Ritz residual %g at restart %d", res.Residual, res.Restarts),
				res.MatVecs, lam, res.Residual)
		}
		if stalled {
			orientPositive(q)
			res.Vector = q
			return res, led.fail(EventStagnated, "", res.MatVecs, lam, res.Residual)
		}
	}
	orientPositive(q)
	res.Vector = q
	return res, led.fail(EventBudgetExhausted, "", res.MatVecs, res.Lambda, res.Residual)
}
