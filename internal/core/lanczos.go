package core

import (
	"errors"
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
// trade-off explicit and measurable: memory is (BasisSize+2)·N floats
// against the power iteration's 2·N.

// LanczosOptions configures the restarted Lanczos solver.
type LanczosOptions struct {
	// Tol is the residual threshold on ‖W·x − λ·x‖₂. Default 1e-13.
	Tol float64
	// BasisSize is the Krylov basis length per restart cycle (default 24).
	BasisSize int
	// MaxRestarts caps the number of restart cycles (default 1000).
	MaxRestarts int
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
// the partial result with ErrNoConvergence when the restart budget is
// exhausted.
func Lanczos(op Operator, opts LanczosOptions) (LanczosResult, error) {
	n := op.Dim()
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-13
	}
	m := opts.BasisSize
	if m <= 0 {
		m = 24
	}
	if m > n {
		m = n
	}
	maxRestarts := opts.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1000
	}

	q := device.AllocVector(n)
	if opts.Start != nil {
		if len(opts.Start) != n {
			return LanczosResult{}, fmt.Errorf("core: start vector length %d, want %d", len(opts.Start), n)
		}
		copy(q, opts.Start)
	} else {
		vec.Fill(q, 1)
	}
	if vec.Norm2(q) == 0 {
		return LanczosResult{}, errors.New("core: start vector is zero")
	}
	vec.Normalize2(q)

	kw := NewKrylovWork(n)
	basis, alpha, beta, w := kw.krylov(n, m) // beta[j] couples basis[j] and basis[j+1]

	// Same hook discipline as PowerIteration: hoisted loads, no deferred
	// closures, every exit path reports through powerDone.
	sh := solveObs.Load()
	sr := span.Installed()
	var sp span.Handle
	if sr != nil {
		sp = sr.Begin(span.LayerCore, SolveKindLanczos)
	}
	if sh != nil {
		sh.o.SolveStart(SolveKindLanczos, n)
	}
	if opts.Observer != nil {
		notifyMethod(opts.Observer, SolveKindLanczos)
		opts.Observer.Event(EventStart, 0, 0, 0)
	}

	res := LanczosResult{BasisBytes: (m + 2) * n * 8}
	lastMatVecs := 0
	for restart := 0; restart < maxRestarts; restart++ {
		res.Restarts = restart + 1
		copy(basis[0], q)
		ph := beginPhase(sr, PhaseMatvec)
		k := kw.lanczosSteps(op, m, 0, &res.MatVecs)
		span.End(ph, int64(res.Restarts), int64(k))
		// Dominant eigenpair of the k×k tridiagonal T.
		ph = beginPhase(sr, PhaseTridiag)
		vals, ritz, err := tridiagEigenpairs(alpha[:k], beta[:max(k-1, 0)])
		span.End(ph, int64(res.Restarts), int64(k))
		if err != nil {
			powerDone(sh, sp, opts.Observer, SolveKindLanczos, EventBreakdown, n, res.MatVecs, res.Lambda, res.Residual)
			return res, err
		}
		res.Lambda = vals[0]
		// Ritz vector y = V·e₀ mapped back: x = Σ_j ritz[j]·basis[j].
		kw.ritzVector(q, ritz)
		vec.Normalize2(q)
		// Explicit residual of the Ritz pair.
		ph = beginPhase(sr, PhaseResidual)
		op.Apply(w, q)
		res.MatVecs++
		var rs float64
		for i, wi := range w {
			r := wi - res.Lambda*q[i]
			rs += r * r
		}
		res.Residual = math.Sqrt(rs)
		span.End(ph, int64(res.Restarts), 0)
		if sh != nil {
			sh.o.SolveStep(SolveKindLanczos, res.MatVecs-lastMatVecs)
		}
		lastMatVecs = res.MatVecs
		if opts.Observer != nil {
			opts.Observer.Step(res.MatVecs, res.Lambda, res.Residual)
		}
		if res.Residual <= tol {
			res.Converged = true
			orientPositive(q)
			res.Vector = q
			powerDone(sh, sp, opts.Observer, SolveKindLanczos, EventConverged, n, res.MatVecs, res.Lambda, res.Residual)
			return res, nil
		}
	}
	orientPositive(q)
	res.Vector = q
	powerDone(sh, sp, opts.Observer, SolveKindLanczos, EventBudgetExhausted, n, res.MatVecs, res.Lambda, res.Residual)
	return res, fmt.Errorf("%w after %d restarts (residual %g, tol %g)",
		ErrNoConvergence, res.Restarts, res.Residual, tol)
}
