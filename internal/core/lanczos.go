package core

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// This file implements the restarted Lanczos method that Section 3 names
// as the main alternative to the power iteration. The paper dismisses
// Lanczos/Arnoldi for the very largest instances because they "require
// storing more intermediate vectors"; this implementation makes that
// trade-off explicit and measurable: memory is (lanczosBasis+2)·N floats
// against the power iteration's 2·N.

const (
	// lanczosBasis is the Krylov basis length per restart cycle (clamped
	// to the dimension).
	lanczosBasis = 24
	// lanczosMaxRestarts caps the restart cycles.
	lanczosMaxRestarts = 1000
)

// LanczosOptions configures the restarted Lanczos solver.
type LanczosOptions struct {
	// Tol is the residual threshold on ‖W·x − λ·x‖₂. Default 1e-13.
	Tol float64
	// Start is the starting vector (copied). Default: uniform.
	Start []float64
	// Observer, when non-nil, receives one Step per restart (iter counts
	// operator applications) plus lifecycle events — the same contract as
	// PowerOptions.Observer.
	Observer Observer
}

// LanczosResult is the outcome of the Lanczos solver.
type LanczosResult struct {
	Lambda     float64
	Vector     []float64 // unit 2-norm, non-negative orientation
	MatVecs    int       // operator applications used
	Restarts   int
	Residual   float64
	Converged  bool
	BasisBytes int // peak basis storage in bytes, for the memory trade-off
}

// Lanczos computes the dominant eigenpair of the *symmetric* operator op
// (use the Symmetric formulation of Eq. 4) by restarted Lanczos with
// partial reorthogonalization of the small basis (krylov.go). It returns
// the partial result with a *ConvergenceError (ErrNoConvergence) when the
// restart budget is exhausted, and (ErrBreakdown) at the first non-finite
// Ritz residual.
func Lanczos(op Operator, opts LanczosOptions) (LanczosResult, error) {
	n := op.Dim()
	tol := tolerance(opts.Tol)
	m := min(lanczosBasis, n)

	q := device.AllocVector(n)
	if err := loadStart(nil, q, opts.Start); err != nil {
		return LanczosResult{}, err
	}

	kw := NewKrylovWork(n)
	basis, alpha, beta, w := kw.krylov(n, m) // beta[j] couples basis[j] and basis[j+1]

	led := openLedger(SolveKindLanczos, n, opts.Observer, 0, tol, 0)
	sr := led.sr
	res := LanczosResult{BasisBytes: (m + 2) * n * 8}
	for restart := 0; restart < lanczosMaxRestarts; restart++ {
		res.Restarts = restart + 1
		copy(basis[0], q)
		ph := beginSpan(sr, PhaseMatvec)
		k := kw.lanczosSteps(op, m, 0, &res.MatVecs)
		span.End(ph, int64(res.Restarts), int64(k))
		// Dominant eigenpair of the k×k tridiagonal T.
		ph = beginSpan(sr, PhaseTridiag)
		vals, ritz, err := tridiagEigenpairs(alpha[:k], beta[:max(k-1, 0)])
		span.End(ph, int64(res.Restarts), int64(k))
		if err != nil {
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, err
		}
		res.Lambda = vals[0]
		// Ritz vector y = V·e₀ mapped back: x = Σ_j ritz[j]·basis[j].
		kw.ritzVector(q, ritz)
		vec.Normalize2(q)
		// Explicit residual of the Ritz pair.
		ph = beginSpan(sr, PhaseResidual)
		op.Apply(w, q)
		res.MatVecs++
		_, res.Residual = vec.ShiftedDotNorm2(q, w, res.Lambda) // ‖w − λq‖₂
		span.End(ph, int64(res.Restarts), 0)
		led.check(res.MatVecs, res.Lambda, res.Residual)
		if res.Residual <= tol {
			res.Converged = true
			orientPositive(q)
			res.Vector = q
			led.end(EventConverged, res.MatVecs, res.Lambda, res.Residual)
			return res, nil
		}
		if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
			// A non-finite Ritz pair restarts from a non-finite vector:
			// every later cycle would be the same.
			orientPositive(q)
			res.Vector = q
			return res, led.fail(EventBreakdown,
				fmt.Sprintf("Ritz residual %g at restart %d", res.Residual, res.Restarts),
				res.MatVecs, res.Lambda, res.Residual)
		}
	}
	orientPositive(q)
	res.Vector = q
	return res, led.fail(EventBudgetExhausted, "", res.MatVecs, res.Lambda, res.Residual)
}
