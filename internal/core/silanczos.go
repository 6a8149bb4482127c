package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// Shift-invert Lanczos: the deep gear of the adaptive critical-window
// engine. Where the plain and Chebyshev iterations slow down as the gap
// λ₀ − λ₁ collapses near the error threshold, shift-invert converges at
// the rate of the *transformed* gap: Lanczos runs on B = (µI − S)⁻¹ whose
// dominant eigenvalue 1/(µ − λ₀) towers over 1/(µ − λ₁) whenever the
// shift µ sits just above λ₀. The catch is that each outer step needs a
// linear solve with (µI − S); for a general fitness landscape there is no
// fast direct inverse (the paper's closed form covers only pure Q), so we
// use inner conjugate gradients — valid because S is symmetric and µ > λ₀
// makes (µI − S) positive definite.
//
// Shift placement is the whole game:
//   - µ must exceed λ₀ (else (µI − S) is indefinite; CG detects this as
//     non-positive curvature and the solve fails fast with ErrBadShift so
//     the caller can raise µ).
//   - µ − λ₀ should be small against λ₀ − λ₁ for a large transformed gap,
//     but the inner CG condition number is ≈ (µ − λ_min)/(µ − λ₀), so an
//     overly tight shift trades outer steps for inner ones.
//
// On a monotone p-sweep λ₀(p) is decreasing, so the previous point's λ₀ is
// an automatic upper shift for the next point — the warm-start chain
// carries it (see AdaptiveOptions.State).

// ErrBadShift reports a shift-invert solve whose shift µ does not lie
// above the operator's spectrum: (µI − S) is not positive definite, which
// the inner CG detects as non-positive curvature. Retry with a larger µ
// (e.g. UpperBoundLambda).
var ErrBadShift = errors.New("core: shift µ is not above the dominant eigenvalue (µI − S not positive definite)")

const (
	// siBasis is the outer Krylov basis length per restart (clamped to the
	// dimension): the transformed spectrum is so skewed that tiny bases
	// converge.
	siBasis = 8
	// siMaxRestarts caps the outer restart cycles.
	siMaxRestarts = 40
)

// ShiftInvertOptions configures the shift-invert Lanczos solver.
type ShiftInvertOptions struct {
	// Tol is the residual threshold on ‖S·x − λ·x‖₂ of the *original*
	// operator (not the transformed one). Default 1e-13.
	Tol float64
	// Shift is the spectral shift µ, required to satisfy µ > λ₀. Mandatory
	// (there is no safe default: too low is indefinite, too high is slow).
	Shift float64
	// Start is the starting vector; copied, not mutated. Default: uniform.
	// May alias the Work iterate (warm-start continuation).
	Start []float64
	// Dev selects device-parallel BLAS-1 operations; nil runs serially.
	Dev *device.Device
	// Observer, when non-nil, receives one Step per outer restart plus
	// lifecycle events; Step's iter argument counts operator applications.
	Observer Observer
	// Work supplies reusable scratch (basis + CG vectors); the returned
	// Vector aliases its Ritz buffer. Nil allocates fresh scratch.
	Work *ShiftInvertWork
}

// ShiftInvertWork is the reusable scratch of a shift-invert Lanczos solve:
// the outer Krylov basis and tridiagonal coefficients plus the inner CG
// vectors and the Ritz-vector buffer.
type ShiftInvertWork struct {
	kry KrylovWork
	// inner CG scratch: residual, search direction, S·p product.
	r, p, ap []float64
	// q is the Ritz/iterate buffer the result vector aliases.
	q []float64
}

// NewShiftInvertWork returns empty scratch; buffers size lazily.
func NewShiftInvertWork(n int) *ShiftInvertWork {
	_ = n
	return &ShiftInvertWork{}
}

func (sw *ShiftInvertWork) vectors(n int) (r, p, ap, q []float64) {
	if len(sw.r) != n {
		sw.r = device.AllocVector(n)
	}
	if len(sw.p) != n {
		sw.p = device.AllocVector(n)
	}
	if len(sw.ap) != n {
		sw.ap = device.AllocVector(n)
	}
	if len(sw.q) != n {
		sw.q = device.AllocVector(n)
	}
	return sw.r, sw.p, sw.ap, sw.q
}

// ShiftInvertResult is the outcome of a shift-invert Lanczos solve.
type ShiftInvertResult struct {
	// Lambda is the dominant eigenvalue of the original operator,
	// recovered as µ − 1/θ from the transformed Ritz value θ.
	Lambda float64
	// Vector is the eigenvector estimate, unit 2-norm, non-negative
	// orientation. Aliases Work's Ritz buffer when Work was supplied.
	Vector []float64
	// MatVecs counts applications of the original operator (the inner CG
	// iterations dominate; outer steps add one residual check each).
	MatVecs int
	// Restarts is the number of outer Lanczos restart cycles.
	Restarts int
	// InnerIters is the total inner CG iteration count.
	InnerIters int
	// Residual is the final ‖S·x − λ·x‖₂ on the original operator.
	Residual float64
	// Converged reports whether Residual ≤ Tol was reached.
	Converged bool
	// Mu echoes the shift used.
	Mu float64
}

// ShiftInvertLanczos computes the dominant eigenpair of the *symmetric*
// operator op by restarted Lanczos on (µI − S)⁻¹ with inner CG solves.
// The residual and Lambda refer to the original operator. It returns
// ErrBadShift (fast, before burning the budget) when µ ≤ λ₀, and the
// partial result with ErrNoConvergence when restarts run out.
func ShiftInvertLanczos(op Operator, opts ShiftInvertOptions) (ShiftInvertResult, error) {
	n := op.Dim()
	tol := tolerance(opts.Tol)
	mu := opts.Shift
	if math.IsNaN(mu) || math.IsInf(mu, 0) || mu == 0 {
		return ShiftInvertResult{}, fmt.Errorf("core: shift-invert needs an explicit shift µ > λ₀, got %g", mu)
	}
	m := min(siBasis, n)
	// The inner CG solves stop two decades below the outer Tol, floored at
	// 1e-15 (the attainable outer residual is limited by the inner solve
	// accuracy), or after 10·√N + 100 iterations.
	innerTol := math.Max(tol*1e-2, 1e-15)
	innerMaxIter := 10*int(math.Sqrt(float64(n))) + 100
	dev := opts.Dev

	work := opts.Work
	if work == nil {
		work = NewShiftInvertWork(n)
	}
	cgR, cgP, cgAp, q := work.vectors(n)
	basis, alpha, beta, w := work.kry.krylov(n, m)

	if err := loadStart(dev, q, opts.Start); err != nil {
		return ShiftInvertResult{}, err
	}

	led := openLedger(SolveKindShiftInvert, n, opts.Observer, mu, tol, 0)
	sr := led.sr
	res := ShiftInvertResult{Vector: q, Mu: mu}
	for restart := 0; restart < siMaxRestarts; restart++ {
		res.Restarts = restart + 1
		dev.Copy(basis[0], q)
		k := 0
		badShift := false
		for j := 0; j < m; j++ {
			// One outer step: w ← (µI − S)⁻¹ · basis[j] by inner CG.
			ph := beginSpan(sr, PhaseInnerSolve)
			ok := innerCG(op, dev, w, basis[j], mu, innerTol, innerMaxIter, cgR, cgP, cgAp, &res.MatVecs, &res.InnerIters)
			span.End(ph, int64(res.Restarts), int64(j))
			if !ok {
				badShift = true
				break
			}
			alpha[j] = dev.Dot(basis[j], w)
			dev.AXPY(-alpha[j], basis[j], w)
			if j > 0 {
				dev.AXPY(-beta[j-1], basis[j-1], w)
			}
			// Full reorthogonalization of the small outer basis.
			for t := 0; t <= j; t++ {
				c := dev.Dot(basis[t], w)
				dev.AXPY(-c, basis[t], w)
			}
			k = j + 1
			if j+1 < m {
				b := dev.Norm2(w)
				if b < 1e-300 {
					break // invariant subspace of the transformed operator
				}
				beta[j] = b
				inv := 1 / b
				if dev != nil {
					bd, wd := basis[j+1], w
					dev.LaunchRange(n, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							bd[i] = wd[i] * inv
						}
					})
				} else {
					for i := range w {
						basis[j+1][i] = w[i] * inv
					}
				}
			}
		}
		if badShift {
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, fmt.Errorf("%w: µ = %g", ErrBadShift, mu)
		}
		if k == 0 {
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, errors.New("core: shift-invert Lanczos built an empty basis")
		}
		// Dominant Ritz pair of the k×k tridiagonal (of the transformed
		// operator; its top eigenvalue θ maps back as λ = µ − 1/θ).
		ph := beginSpan(sr, PhaseTridiag)
		vals, vecs, err := tridiagEigenpairs(alpha[:k], beta[:max(k-1, 0)])
		span.End(ph, int64(res.Restarts), int64(k))
		if err != nil {
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, err
		}
		theta := vals[0]
		if theta <= 0 {
			// The transformed operator is SPD when µ > λ₀; a non-positive
			// dominant Ritz value means the shift is unusable.
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, fmt.Errorf("%w: transformed Ritz value θ = %g ≤ 0 at µ = %g", ErrBadShift, theta, mu)
		}
		res.Lambda = mu - 1/theta
		// Ritz vector x = Σ_j vecs[j][0]·basis[j] (built in q, normalized).
		vec.Fill(q, 0)
		for j := 0; j < k; j++ {
			dev.AXPY(vecs[j], basis[j], q)
		}
		nrm := dev.Norm2(q)
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			led.end(EventBreakdown, res.MatVecs, res.Lambda, res.Residual)
			return res, fmt.Errorf("core: shift-invert Ritz vector collapsed at restart %d", res.Restarts)
		}
		dev.Scale(q, 1/nrm)
		// Explicit residual on the original operator.
		ph = beginSpan(sr, PhaseResidual)
		op.Apply(w, q)
		res.MatVecs++
		lambda := dev.Dot(q, w) // Rayleigh quotient beats µ − 1/θ once close
		res.Lambda = lambda
		r := dev.ResidualNorm2(w, q, lambda)
		span.End(ph, int64(res.Restarts), 0)
		res.Residual = r
		led.check(res.MatVecs, lambda, r)
		if r <= tol {
			res.Converged = true
			orientPositive(q)
			res.Vector = q
			led.end(EventConverged, res.MatVecs, lambda, r)
			return res, nil
		}
	}
	orientPositive(q)
	res.Vector = q
	return res, led.fail(EventBudgetExhausted, "", res.MatVecs, res.Lambda, res.Residual)
}

// innerCG solves (µI − S)·y = rhs to relative tolerance rtol by conjugate
// gradients, writing the solution into y (zero initial guess — rhs is a
// fresh unit Lanczos direction each call, so there is no better seed). It
// returns false when it encounters non-positive curvature, the symptom of
// µ ≤ λ₀. matvecs/inner are incremented per S application / CG step.
func innerCG(op Operator, dev *device.Device, y, rhs []float64, mu, rtol float64, maxIter int, r, p, ap []float64, matvecs, inner *int) bool {
	n := len(y)
	vec.Fill(y, 0)
	dev.Copy(r, rhs) // r = rhs − (µI−S)·0
	dev.Copy(p, r)
	rs := dev.Dot(r, r)
	bnorm := math.Sqrt(rs)
	if bnorm == 0 {
		return true
	}
	threshold := rtol * bnorm
	for it := 0; it < maxIter; it++ {
		// ap ← (µI − S)·p
		op.Apply(ap, p)
		*matvecs++
		*inner++
		if dev != nil {
			apd, pd := ap, p
			dev.LaunchRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					apd[i] = mu*pd[i] - apd[i]
				}
			})
		} else {
			for i := range ap {
				ap[i] = mu*p[i] - ap[i]
			}
		}
		curv := dev.Dot(p, ap)
		if curv <= 0 || math.IsNaN(curv) {
			return false // (µI − S) not positive definite along p: µ ≤ λ₀
		}
		a := rs / curv
		dev.AXPY(a, p, y)
		dev.AXPY(-a, ap, r)
		rsNew := dev.Dot(r, r)
		if math.Sqrt(rsNew) <= threshold {
			return true
		}
		b := rsNew / rs
		rs = rsNew
		// p ← r + b·p
		if dev != nil {
			pd, rd := p, r
			dev.LaunchRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pd[i] = rd[i] + b*pd[i]
				}
			})
		} else {
			for i := range p {
				p[i] = r[i] + b*p[i]
			}
		}
	}
	// Budget exhausted: accept the partial solve — the outer Lanczos only
	// needs an approximate inverse direction, and the explicit residual on
	// the original operator keeps correctness honest.
	return true
}

// tridiagEigenpairs returns the eigenvalues (descending) of the symmetric
// tridiagonal matrix and the components of the dominant eigenvector.
func tridiagEigenpairs(alpha, beta []float64) ([]float64, []float64, error) {
	k := len(alpha)
	t := dense.NewMatrix(k, k)
	for j := 0; j < k; j++ {
		t.Set(j, j, alpha[j])
		if j+1 < k {
			t.Set(j, j+1, beta[j])
			t.Set(j+1, j, beta[j])
		}
	}
	vals, vecs, err := dense.JacobiEigen(t, 1e-15)
	if err != nil {
		return nil, nil, fmt.Errorf("core: tridiagonal eigensolve failed: %w", err)
	}
	top := make([]float64, k)
	for j := 0; j < k; j++ {
		top[j] = vecs.At(j, 0)
	}
	return vals, top, nil
}
