package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// This file computes the subdominant eigenpair and the spectral gap of W,
// the quantity that governs the power iteration's convergence rate
// λ₁/λ₀ (and (λ₁−µ)/(λ₀−µ) with the Section 3 shift). The gap is the
// paper's implicit cost model: near the error threshold it closes and the
// iteration count blows up, which is also where the Lanczos alternative
// pays off.

// SecondEigenpair computes the second eigenpair (λ₁, x₁) of a *symmetric*
// operator by power iteration deflated against the supplied dominant
// eigenvector: every iterate is re-orthogonalized against x₀, so the
// iteration converges to the dominant eigenpair of (I − x₀x₀ᵀ)·A.
// dominant must hold a unit-2-norm eigenvector from a converged solve of
// the same operator.
func SecondEigenpair(op Operator, dominant []float64, opts PowerOptions) (PowerResult, error) {
	n := op.Dim()
	if len(dominant) != n {
		return PowerResult{}, fmt.Errorf("core: dominant vector length %d, want %d", len(dominant), n)
	}
	if math.Abs(vec.Norm2(dominant)-1) > 1e-8 {
		return PowerResult{}, errors.New("core: dominant vector must have unit 2-norm")
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-11
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500000
	}
	stallChecks := opts.StallChecks
	if stallChecks == 0 {
		stallChecks = 100
	}

	x := device.AllocVector(n)
	if opts.Start != nil {
		if len(opts.Start) != n {
			return PowerResult{}, fmt.Errorf("core: start vector length %d, want %d", len(opts.Start), n)
		}
		copy(x, opts.Start)
	} else {
		// A deterministic start with overlap on all coordinates but not
		// parallel to the dominant vector.
		for i := range x {
			x[i] = 1 + 0.5*math.Sin(float64(3*i+1))
		}
	}
	deflate(x, dominant)
	if vec.Norm2(x) < 1e-12 {
		return PowerResult{}, errors.New("core: start vector lies in the dominant direction")
	}
	vec.Normalize2(x)

	w := device.AllocVector(n)
	res := PowerResult{}
	bestResidual := math.Inf(1)
	stalled := 0
	for iter := 1; iter <= maxIter; iter++ {
		res.Iterations = iter
		op.Apply(w, x)
		deflate(w, dominant)
		lambda := vec.Dot(x, w)
		res.Lambda = lambda
		var rs float64
		for i, wi := range w {
			r := wi - lambda*x[i]
			rs += r * r
		}
		res.Residual = math.Sqrt(rs)
		if res.Residual <= tol {
			res.Converged = true
			break
		}
		if stallChecks > 0 {
			if res.Residual < bestResidual*(1-1e-6) {
				bestResidual = res.Residual
				stalled = 0
			} else if stalled++; stalled >= stallChecks {
				orientPositive(x)
				res.Vector = x
				return res, fmt.Errorf("%w: residual %g after %d iterations", ErrStagnated, res.Residual, iter)
			}
		}
		nrm := vec.Norm2(w)
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			return res, fmt.Errorf("core: deflated iteration broke down at step %d", iter)
		}
		for i := range x {
			x[i] = w[i] / nrm
		}
	}
	orientPositive(x)
	res.Vector = x
	if !res.Converged {
		return res, fmt.Errorf("%w after %d deflated iterations (residual %g)",
			ErrNoConvergence, res.Iterations, res.Residual)
	}
	return res, nil
}

func deflate(v, against []float64) {
	c := vec.Dot(against, v)
	vec.AXPY(-c, against, v)
}

// SpectralGap summarizes the top of the spectrum of W.
type SpectralGap struct {
	Lambda0, Lambda1 float64
	// Rate is the unshifted convergence factor λ₁/λ₀ of the power
	// iteration; errors shrink by this factor per step asymptotically.
	Rate float64
	// ShiftedRate is (λ₁−µ)/(λ₀−µ) for the shift µ used.
	ShiftedRate float64
	Mu          float64
}

// ErrGapUnresolved is the sentinel for spectral-gap estimates that cannot
// distinguish λ₀ from λ₁ at the attained numerical resolution. Callers that
// would switch solve methods on a tiny gap must treat an unresolved gap as
// "inside the critical window", never as a trustworthy rate.
var ErrGapUnresolved = errors.New("core: spectral gap unresolved")

// GapUnresolvedError reports why a gap estimate is not trustworthy: either
// the two leading eigenvalues coincide within the estimate's resolution
// (near-degenerate avoided crossing), or the subdominant solve terminated
// with Ritz values whose residual exceeds the separation it claims. It
// unwraps to ErrGapUnresolved; the partial SpectralGap is still returned
// alongside it so λ₀ remains usable.
type GapUnresolvedError struct {
	// Reason is "near_degenerate" or "unconverged_ritz".
	Reason string
	// Lambda0 and Lambda1 are the estimates that could not be separated.
	Lambda0, Lambda1 float64
	// Separation is λ₀ − λ₁ as computed.
	Separation float64
	// Resolution is the uncertainty the estimate carries (the subdominant
	// residual, floored at the floating-point resolution of λ₀).
	Resolution float64
}

func (e *GapUnresolvedError) Error() string {
	return fmt.Sprintf("core: spectral gap unresolved (%s): λ₀ = %.17g, λ₁ = %.17g, separation %.3g below resolution %.3g",
		e.Reason, e.Lambda0, e.Lambda1, e.Separation, e.Resolution)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *GapUnresolvedError) Unwrap() error { return ErrGapUnresolved }

// EstimateGap solves for both leading eigenpairs of the *symmetric*
// operator and derives the convergence rates with and without the shift µ.
//
// When the two leading eigenvalues cannot be separated at the attained
// numerical resolution — the subdominant solve stagnated with a residual
// larger than the separation it reports, or λ₁ sits within floating-point
// noise of λ₀ (the near-degenerate avoided crossing of the critical
// window) — EstimateGap returns the partial SpectralGap together with a
// *GapUnresolvedError instead of a spuriously tiny (or negative) gap that
// would mis-trigger a method switch.
func EstimateGap(op Operator, mu float64, opts PowerOptions) (*SpectralGap, error) {
	// A stagnated dominant solve has hit the floating-point floor; its
	// eigenpair is still the best attainable and the gap math stays valid.
	first, err := PowerIteration(op, opts)
	if err != nil && !errors.Is(err, ErrStagnated) {
		return nil, fmt.Errorf("core: dominant solve failed: %w", err)
	}
	secondOpts := opts
	secondOpts.Start = nil
	secondOpts.Shift = 0
	second, err := SecondEigenpair(op, first.Vector, secondOpts)
	if err != nil && !errors.Is(err, ErrStagnated) {
		return nil, fmt.Errorf("core: subdominant solve failed: %w", err)
	}
	g := &SpectralGap{
		Lambda0: first.Lambda,
		Lambda1: second.Lambda,
		Mu:      mu,
	}
	g.Rate = second.Lambda / first.Lambda
	g.ShiftedRate = (second.Lambda - mu) / (first.Lambda - mu)
	// Resolution of the λ₁ estimate: a Ritz value with residual r can sit
	// anywhere within r of a true eigenvalue, and no estimate resolves
	// below the floating-point granularity of λ₀ itself.
	resolution := math.Max(second.Residual, 64*2.220446049250313e-16*math.Abs(first.Lambda))
	sep := first.Lambda - second.Lambda
	if !second.Converged && sep <= resolution {
		return g, &GapUnresolvedError{
			Reason: "unconverged_ritz", Lambda0: first.Lambda, Lambda1: second.Lambda,
			Separation: sep, Resolution: resolution,
		}
	}
	if sep <= resolution {
		return g, &GapUnresolvedError{
			Reason: "near_degenerate", Lambda0: first.Lambda, Lambda1: second.Lambda,
			Separation: sep, Resolution: resolution,
		}
	}
	return g, nil
}

// RitzGap runs k unrestarted Lanczos steps on the *symmetric* operator and
// returns the two leading Ritz values (θ₀, θ₁). By Cauchy interlacing both
// are lower bounds (θ₀ ≤ λ₀, θ₁ ≤ λ₁), and θ₀ converges to λ₀ far faster
// than a power iteration — which makes this the cheap online gap estimate
// the adaptive method selector runs per sweep point (k matrix–vector
// products, no restart, no residual loop). start must be a deterministic
// vector with broad spectral overlap; nil selects the same pseudo-random
// deterministic start SecondEigenpair uses. If the Krylov space degenerates
// before two Ritz values exist, a *GapUnresolvedError is returned.
func RitzGap(op Operator, k int, start []float64, work *KrylovWork) (theta0, theta1 float64, err error) {
	p, err := ritzGap(op, k, start, nil, 0, work)
	return p.theta0, p.theta1, err
}

// ritzProbe is what the adaptive engine keeps of a gap probe: the two
// leading Ritz values, the steps built, and enough of the top Ritz pair
// (θ₀, x) to hand it to a gear.
type ritzProbe struct {
	theta0, theta1 float64
	// built is the number of Lanczos steps run — the probe's matvec count,
	// below k when k is clamped to the dimension, the Krylov space closes
	// early or a self-stopping probe met its tolerance.
	built int
	// residual estimates ‖W·x − θ₀·x‖ for the top Ritz vector x = V·y by
	// the Lanczos residual identity β_built·|y_{built−1}|, exact in exact
	// arithmetic; β_built is the breakdown β when the Krylov space closed,
	// and the next β when the probe stopped early.
	residual float64
	// y holds x's coordinates in the probe basis (KrylovWork.ritzVector
	// assembles x).
	y []float64
}

// ritzGap is RitzGap that also returns the top Ritz pair's coordinates and
// residual estimate and the number of Lanczos steps it built. With weight
// non-nil the probe starts from start ⊙ weight, staged straight into the
// basis: the Symmetric form F^½·x_R of a Right-form warm start x_R when
// weight is √f. With stop > 0, k is a cap: the probe ends before its next
// matvec once its top Ritz pair is resolved and its residual estimate is at
// most stop (KrylovWork.ritzConverged).
func ritzGap(op Operator, k int, start, weight []float64, stop float64, work *KrylovWork) (ritzProbe, error) {
	n := op.Dim()
	if k < 2 {
		return ritzProbe{}, fmt.Errorf("core: RitzGap needs k ≥ 2 Lanczos steps, got %d", k)
	}
	if k > n {
		k = n
	}
	if start != nil && len(start) != n {
		return ritzProbe{}, fmt.Errorf("core: start vector length %d, want %d", len(start), n)
	}
	sr := span.Installed()
	sp := beginPhase(sr, PhaseGapProbe)
	if work == nil {
		work = NewKrylovWork(n)
	}
	basis, alpha, beta, w := work.krylov(n, k)
	q := basis[0]
	switch {
	case start == nil:
		ritzStart(q)
	case weight != nil:
		vec.Mul(q, start, weight)
	default:
		copy(q, start)
	}
	// One norm for the zero check and the normalization: the same
	// operations as vec.Normalize2.
	nrm := vec.Norm2(q)
	if nrm == 0 {
		span.End(sp, int64(n), int64(k))
		return ritzProbe{}, errors.New("core: start vector is zero")
	}
	vec.Scale(q, 1/nrm)
	built := work.lanczosSteps(op, k, stop, nil)
	span.End(sp, int64(n), int64(built))
	p := ritzProbe{built: built}
	if built < 2 {
		// beta[0] is this probe's own norm: the breakdown step's, or 0.
		p.theta0, p.theta1 = alpha[0], alpha[0]
		return p, &GapUnresolvedError{
			Reason: "unconverged_ritz", Lambda0: alpha[0], Lambda1: alpha[0],
			Separation: 0, Resolution: math.Abs(beta[0]),
		}
	}
	vals, y, err := tridiagEigenpairs(alpha[:built], beta[:built-1])
	if err != nil {
		return p, err
	}
	p.theta0, p.theta1, p.y = vals[0], vals[1], y
	// The breakdown β when the space closed, the next β after an early stop.
	next := math.Abs(beta[built-1])
	if built == k {
		// The last step stopped after α: one fused tail on its w gives the
		// β_k the recurrence would have produced next.
		next = normFromSq(vec.LanczosTail(w, basis[k-1], basis[k-2], alpha[k-1], beta[k-2]), w)
	}
	p.residual = next * math.Abs(y[built-1])
	return p, nil
}

// ritzStart writes RitzGap's default start (unnormalized): deterministic,
// with broad spectral overlap.
func ritzStart(q []float64) {
	for i := range q {
		q[i] = 1 + 0.5*math.Sin(float64(3*i+1))
	}
}

// PredictIterations estimates the number of power-iteration steps needed
// to shrink the eigenvector error by factor eps at convergence rate
// rate ∈ (0, 1): ⌈log(eps)/log(rate)⌉.
func PredictIterations(rate, eps float64) (int, error) {
	if !(rate > 0 && rate < 1) {
		return 0, fmt.Errorf("core: rate %g outside (0, 1)", rate)
	}
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("core: eps %g outside (0, 1)", eps)
	}
	return int(math.Ceil(math.Log(eps) / math.Log(rate))), nil
}

// chebyshevEdge is the adaptive engine's Chebyshev filter edge
// b = θ₁ + ½(θ₀−θ₁) for a resolved probe pair: by interlacing θ₀ ≤ λ₀, so
// b < λ₀ always, and b ≥ λ₁ once the probe has converged to λ₁ from below.
func chebyshevEdge(theta0, theta1 float64) float64 {
	return theta1 + 0.5*(theta0-theta1)
}

// PredictChebyshevMatVecs estimates the matrix–vector products the
// Chebyshev gear needs to shrink the eigenvector error by factor eps, from
// the same probe pair (θ₀, θ₁) the power prediction uses. The filter runs
// on [a, b] = [lower, chebyshevEdge(θ₀, θ₁)], with lower the provable lower
// spectral edge the gear is given (ConservativeShift; 0 when none is known).
// The map sends θ₀ to γ = (2θ₀ − a − b)/(b − a) > 1; T_d(γ) ≈ ½·e^(d·acosh γ),
// so each matvec shrinks the error by e^(−acosh γ), and a larger a, a
// narrower interval, means a larger γ and fewer matvecs. The count is
// rounded up to whole restarts of degree filter matvecs plus the restart's
// Rayleigh matvec; the gear's residual-sized last restart usually needs
// fewer, so this is an upper estimate.
func PredictChebyshevMatVecs(theta0, theta1, lower float64, degree int, eps float64) (int, error) {
	if degree < 1 {
		return 0, fmt.Errorf("core: Chebyshev degree %d < 1", degree)
	}
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("core: eps %g outside (0, 1)", eps)
	}
	a := math.Max(lower, 0)
	b := chebyshevEdge(theta0, theta1)
	gamma := (2*theta0 - a - b) / (b - a)
	if !(b > a && gamma > 1) {
		return 0, fmt.Errorf("core: probe pair (%g, %g) over lower edge %g sets no Chebyshev filter", theta0, theta1, a)
	}
	matvecs := math.Ceil(math.Log(eps) / -math.Acosh(gamma))
	restarts := max(1, int(math.Ceil(matvecs/float64(degree))))
	return restarts * (degree + 1), nil
}
