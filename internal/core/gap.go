package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/span"
	"repro/internal/vec"
)

// This file estimates the spectral gap of W, the quantity that governs the
// power iteration's convergence rate λ₁/λ₀ (and (λ₁−µ)/(λ₀−µ) with the
// Section 3 shift). The gap is the paper's implicit cost model: near the
// error threshold it closes and the iteration count blows up, which is
// where the Krylov and Chebyshev gears pay off. The Lanczos gap probe
// (RitzGap) is the one estimator: the adaptive selector runs it per point
// and qs-gap tabulates it.

// ErrGapUnresolved is the sentinel for spectral-gap estimates that cannot
// distinguish λ₀ from λ₁ at the attained numerical resolution. Callers that
// would switch solve methods on a tiny gap must treat an unresolved gap as
// "inside the critical window", never as a trustworthy rate.
var ErrGapUnresolved = errors.New("core: spectral gap unresolved")

// GapUnresolvedError reports a gap probe that cannot separate λ₀ from λ₁:
// its Krylov space closed before a second Ritz value existed. It unwraps to
// ErrGapUnresolved; RitzGap still returns its θ₀ alongside it. A probe
// that returns two Ritz values can still fail RitzResolved, which callers
// check themselves.
type GapUnresolvedError struct {
	// Reason is "unconverged_ritz" for a probe.
	Reason string
	// Lambda0 and Lambda1 are the estimates that could not be separated.
	Lambda0, Lambda1 float64
	// Separation is λ₀ − λ₁ as computed.
	Separation float64
	// Resolution is the uncertainty the estimate carries: the probe's
	// breakdown β.
	Resolution float64
}

func (e *GapUnresolvedError) Error() string {
	return fmt.Sprintf("core: spectral gap unresolved (%s): λ₀ = %.17g, λ₁ = %.17g, separation %.3g below resolution %.3g",
		e.Reason, e.Lambda0, e.Lambda1, e.Separation, e.Resolution)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *GapUnresolvedError) Unwrap() error { return ErrGapUnresolved }

// RitzGap runs k unrestarted Lanczos steps on the *symmetric* operator and
// returns the two leading Ritz values (θ₀, θ₁). By Cauchy interlacing both
// are lower bounds (θ₀ ≤ λ₀, θ₁ ≤ λ₁), and θ₀ converges to λ₀ far faster
// than a power iteration — which makes this the cheap online gap estimate
// the adaptive method selector runs per sweep point (k matrix–vector
// products, no restart, no residual loop). start must be a deterministic
// vector with broad spectral overlap; nil selects a fixed pseudo-random
// deterministic start (ritzStart). If the Krylov space degenerates before
// two Ritz values exist, a *GapUnresolvedError is returned. RitzResolved is
// the rule for trusting the pair it returns.
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
	sp := beginSpan(sr, PhaseGapProbe)
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
	built := work.lanczosSteps(op, k, stop)
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
		// The last step stopped after α: the step's fused tail, written
		// over its w, gives the β_k the recurrence would have produced next.
		s := work.scale
		sv := s[k-1]
		next = vec.NormFromSumSq(vec.LanczosTail(w, w, basis[k-1], basis[k-2], sv, alpha[k-1]*sv, beta[k-2]*s[k-2]), nil, w, 0)
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
