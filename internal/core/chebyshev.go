package core

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/span"
)

// Chebyshev-accelerated power iteration: the middle gear of the adaptive
// critical-window engine. One restart applies the degree-d Chebyshev
// polynomial T_d mapped onto a damping interval [a, b] with b < λ₀: every
// eigencomponent inside [a, b] is suppressed to |T_d| ≤ 1 while the
// dominant one is amplified by T_d(γ) ≈ ½·e^(d·acosh γ), γ = (2λ₀ − a − b)/(b − a)
// — a quadratic speedup in the effective rate over the plain power method
// for the same number of matrix–vector products, with the same 3·N memory
// footprint (no Krylov basis to store, which is what makes it usable at
// the ν ≥ 18 sizes where the paper rejects Lanczos on memory grounds).
//
// The upper edge b must separate λ₁ from λ₀: λ₁ ≤ b < λ₀. A safe choice
// comes from a RitzGap probe — by Cauchy interlacing θ₁ ≤ λ₁ and θ₀ ≤ λ₀,
// so b = θ₁ + ½(θ₀ − θ₁) is below θ₀ ≤ λ₀ whenever the probe resolves the
// pair. If b turns out ≥ λ₀ the filter damps the dominant component too;
// the stall guard detects the flat residual and returns ErrStagnated so
// the adaptive layer can re-probe or escalate.
//
// The lower edge a must stay at or below λ_min, or the components below a
// grow with |T_d| > 1. The larger a valid a, the narrower the interval and
// the larger γ: the adaptive gear uses the paper's Section 3 bound
// λ_min ≥ (1−2p)^ν·f_min (ConservativeShift, which holds for the Symmetric
// form too), about 0.24 instead of 0 near p_c at ν = 17.
//
// Each restart is the filter's degree-d recurrence followed by one Rayleigh
// matvec; both count against MaxMatVecs. The first restart runs the full
// degree defaultChebDegree; later ones are sized to the residual
// (chebRestartDegree): with the Rayleigh quotient λ in place of λ₀, about
// ln(r/tol)/acosh γ steps reach the tolerance, so the last restart stops
// short instead of running all defaultChebDegree steps. A start that is
// the gap probe's top Ritz vector comes with θ₀ and a residual estimate:
// an estimate at or below the tolerance is checked by one Rayleigh matvec
// and the explicit residual before any filter step, and otherwise sizes
// the first restart the same way. For the Fmmp operator each recurrence
// step z_{j+1} = 2·A′z_j − z_{j−1} is a single mutation call whose last
// butterfly pass also applies the trailing √f scale and the three-term
// update (FmmpOperator.applyThreeTerm), bit-identical to Apply followed by
// chebMap2.

// ChebyshevOptions configures the Chebyshev-filtered iteration.
type ChebyshevOptions struct {
	// Tol is the residual threshold on ‖W·x − λ·x‖₂. Default 1e-13.
	Tol float64
	// MaxMatVecs caps the total operator applications, filter and Rayleigh
	// matvecs together; a restart starts only when at least one filter
	// step and its Rayleigh matvec fit. Default 500000.
	MaxMatVecs int
	// LowerEdge is the damping interval's lower end a, which must not
	// exceed λ_min. 0 is valid for the positive semidefinite quasispecies
	// operators; for the Symmetric operator of a uniform process
	// ConservativeShift(Q, F) is a larger valid edge (see the file
	// comment) and what the adaptive gear passes. Values < 0 are clamped.
	LowerEdge float64
	// UpperEdge is the damping interval's upper end b, with λ₁ ≤ b < λ₀
	// required for amplification (see the file comment). Mandatory.
	UpperEdge float64
	// Start is the starting vector; copied, not mutated. Default: uniform.
	// May alias the Work iterate (warm-start continuation).
	Start []float64
	// Dev selects device-parallel BLAS-1 operations; nil runs serially.
	Dev *device.Device
	// Observer, when non-nil, receives one Step per restart plus lifecycle
	// events — same contract as PowerOptions.Observer.
	Observer Observer
	// Work supplies reusable scratch; the returned Vector aliases its
	// iterate. Nil allocates fresh scratch.
	Work *ChebyshevWork
	// degree overrides defaultChebDegree, the maximum filter degree per
	// restart; only this package's tests set it.
	degree int
	// startRitz, when set, marks Start as the top Ritz vector of this gap
	// probe. An estimate at or below Tol runs no filter first: the vector is
	// checked by the Rayleigh matvec and explicit residual alone. Otherwise
	// the Ritz value θ₀ and the estimate size the first restart by
	// chebRestartDegree like a later one, instead of the full degree. Only
	// AdaptiveSolve sets it (the Ritz handoff).
	startRitz *ritzProbe
}

// ChebyshevWork is the reusable scratch of the Chebyshev iteration: the
// current and previous recurrence iterates plus one product vector.
type ChebyshevWork struct {
	x, z, w []float64
}

// NewChebyshevWork returns scratch for dimension-n solves.
func NewChebyshevWork(n int) *ChebyshevWork {
	return &ChebyshevWork{x: device.AllocVector(n), z: device.AllocVector(n), w: device.AllocVector(n)}
}

func (cw *ChebyshevWork) vectors(n int) (x, z, w []float64) {
	if len(cw.x) != n {
		cw.x = device.AllocVector(n)
	}
	if len(cw.z) != n {
		cw.z = device.AllocVector(n)
	}
	if len(cw.w) != n {
		cw.w = device.AllocVector(n)
	}
	return cw.x, cw.z, cw.w
}

// ChebyshevResult is the outcome of the Chebyshev-filtered iteration.
type ChebyshevResult struct {
	// Lambda is the Rayleigh quotient of the final iterate.
	Lambda float64
	// Vector is the eigenvector estimate, unit 2-norm, non-negative
	// orientation. Aliases Work's iterate when Work was supplied.
	Vector []float64
	// MatVecs is the number of operator applications performed.
	MatVecs int
	// Restarts is the number of filter applications.
	Restarts int
	// Residual is the final ‖W·x − λ·x‖₂.
	Residual float64
	// Converged reports whether Residual ≤ Tol was reached.
	Converged bool
}

// ChebyshevIteration computes the dominant eigenpair of the *symmetric*
// operator op by restarted Chebyshev filtering on [LowerEdge, UpperEdge].
// It returns the partial result with ErrNoConvergence when the budget is
// exhausted and ErrStagnated when restarts stop improving the residual
// (typically a mis-set UpperEdge ≥ λ₀).
func ChebyshevIteration(op Operator, opts ChebyshevOptions) (ChebyshevResult, error) {
	n := op.Dim()
	tol := tolerance(opts.Tol)
	deg := opts.degree
	if deg <= 0 {
		deg = defaultChebDegree
	}
	maxMatVecs := opts.MaxMatVecs
	if maxMatVecs <= 0 {
		maxMatVecs = 500000
	}
	a := opts.LowerEdge
	if a < 0 {
		a = 0
	}
	b := opts.UpperEdge
	if !(b > a) || math.IsNaN(b) || math.IsInf(b, 0) {
		return ChebyshevResult{}, fmt.Errorf("core: Chebyshev damping interval [%g, %g] is empty or invalid", a, b)
	}
	dev := opts.Dev

	var x, z, w []float64
	if opts.Work != nil {
		x, z, w = opts.Work.vectors(n)
	} else {
		x = device.AllocVector(n)
		z = device.AllocVector(n)
		w = device.AllocVector(n)
	}
	if err := loadStart(dev, x, opts.Start); err != nil {
		return ChebyshevResult{}, err
	}

	// Interval map: λ ↦ (2λ − (b+a))/(b−a) sends [a, b] to [−1, 1].
	center := (b + a) / 2
	halfWidth := (b - a) / 2
	// The per-step overflow norm is only needed when the filter's growth is
	// not bounded well below the rescale threshold (see chebGrowthBound).
	stepNorm := !(2*chebGrowthBound(op, center, halfWidth, deg) < chebRescale)

	led := openLedger(SolveKindChebyshev, n, opts.Observer, b, tol, chebStallRestarts)
	sr := led.sr

	// The uniform Fmmp operator runs each recurrence step as one fused call
	// (see FmmpOperator.applyThreeTerm); other operators apply, then map.
	fop, fused := op.(*FmmpOperator)
	twoOverE := 2 / halfWidth

	res := ChebyshevResult{Vector: x, Residual: math.Inf(1)}
	// A Ritz-vector start whose estimate already meets tol is checked as it
	// is, by the Rayleigh matvec and explicit residual alone; one that fails
	// the check goes on to filter restarts sized from (λ, r).
	steps, filter := deg, true
	if e := opts.startRitz; e != nil {
		if e.residual <= tol {
			filter = false
		} else {
			steps = chebRestartDegree(deg, e.theta0, e.residual, tol, a, b)
		}
	}
	// A restart is at least one filter matvec plus its Rayleigh matvec, and
	// both must fit in the budget.
	for maxMatVecs-res.MatVecs >= 2 {
		if filter {
			res.Restarts++
			// One filter application via the three-term recurrence
			// z_{j+1} = 2·A'·z_j − z_{j−1} with A' = (W − c·I)/e, rescaling
			// both iterates jointly whenever they grow (the recurrence is
			// linear, so a joint rescale only changes the overall
			// normalization).
			steps = min(steps, maxMatVecs-res.MatVecs-1)
			ph := beginSpan(sr, PhaseChebPoly)
			// z ← A'·x (degree 1), previous iterate is x (degree 0).
			op.Apply(w, x)
			res.MatVecs++
			chebMap(dev, z, w, x, center, halfWidth)
			for j := 1; j < steps; j++ {
				// x ← 2·A'·z − x, then swap roles of x and z.
				if fused {
					fop.applyThreeTerm(w, z, x, twoOverE, center)
				} else {
					op.Apply(w, z)
					chebMap2(dev, x, w, z, center, halfWidth)
				}
				res.MatVecs++
				x, z = z, x
				if !stepNorm {
					continue
				}
				if m := dev.Norm2(x); m > chebRescale || (m < 1/chebRescale && m > 0) {
					inv := 1 / m
					dev.Scale(x, inv)
					dev.Scale(z, inv)
				}
			}
			// The in-loop swap leaves the newest iterate z_steps in z; swap
			// once more so x names the filtered vector.
			x, z = z, x
			span.End(ph, int64(res.Restarts), int64(steps))

			ph = beginSpan(sr, PhaseNormalize)
			nrm := dev.Norm2(x)
			if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
				span.End(ph, int64(res.Restarts), 0)
				finishCheb(&res, x, opts.Work)
				return res, led.fail(EventBreakdown,
					fmt.Sprintf("‖x‖ = %g after the filter of restart %d", nrm, res.Restarts),
					res.MatVecs, res.Lambda, res.Residual)
			}
			dev.Scale(x, 1/nrm)
			span.End(ph, int64(res.Restarts), 0)
		}
		filter = true

		// Rayleigh quotient and explicit residual of the iterate.
		ph := beginSpan(sr, PhaseRayleigh)
		op.Apply(w, x)
		res.MatVecs++
		lambda := dev.Dot(x, w)
		span.End(ph, int64(res.Restarts), 0)
		res.Lambda = lambda
		ph = beginSpan(sr, PhaseResidual)
		r := dev.ResidualNorm2(w, x, lambda)
		span.End(ph, int64(res.Restarts), 0)
		res.Residual = r
		stalled := led.check(res.MatVecs, lambda, r)
		if r <= tol {
			res.Converged = true
			finishCheb(&res, x, opts.Work)
			led.end(EventConverged, res.MatVecs, lambda, r)
			return res, nil
		}
		if stalled {
			finishCheb(&res, x, opts.Work)
			return res, led.fail(EventStagnated,
				fmt.Sprintf("damping interval [%g, %g] may not separate λ₁ from λ₀", a, b),
				res.MatVecs, lambda, r)
		}
		steps = chebRestartDegree(deg, lambda, r, tol, a, b)
	}
	finishCheb(&res, x, opts.Work)
	return res, led.fail(EventBudgetExhausted, "", res.MatVecs, res.Lambda, res.Residual)
}

// chebRestartDegree is the filter degree of the next restart: the filter
// amplifies λ's component over the damped ones by T_d(γ) ≈ ½·e^(d·acosh γ),
// γ = (2λ − a − b)/(b − a), so shrinking the residual r to tol needs about
// ln(r/tol)/acosh γ steps; two more cover the ½ and the rounding. The cap
// never exceeds deg, and a λ inside the damping interval (γ ≤ 1, a mis-set
// edge) keeps deg. It is only asked for r above tol: a restart whose r
// meets tol has converged, and a Ritz-vector start whose estimate does is
// checked without a filter step.
func chebRestartDegree(deg int, lambda, r, tol, a, b float64) int {
	gamma := (2*lambda - a - b) / (b - a)
	if !(gamma > 1) {
		return deg
	}
	need := math.Ceil(math.Log(tol/r)/-math.Acosh(gamma)) + 2
	if need < float64(deg) {
		return int(need)
	}
	return deg
}

const (
	// defaultChebDegree is the maximum filter degree per restart (filter
	// matvecs before its Rayleigh matvec); the adaptive engine's cost
	// model predicts with the same degree.
	defaultChebDegree = 30
	// chebStallRestarts is the number of consecutive restarts without
	// residual improvement after which the solve stops with ErrStagnated.
	chebStallRestarts = 6
	// chebRescale is the recurrence's overflow guard: an iterate whose norm
	// leaves [1/chebRescale, chebRescale] is rescaled jointly with its
	// predecessor.
	chebRescale = 1e100
)

// chebGrowthBound bounds ‖T_j(A')·x‖ over unit x and j ≤ deg, with
// A' = (op − center)/halfWidth, or returns +Inf when op has no cheap
// spectral bound. The uniform-mutation Symmetric Fmmp operator has its
// spectrum in [µ, f_max] with µ = ConservativeShift ≥ 0 and
// f_max = UpperBoundLambda, so A' has its spectrum in
// [−g, g] with g = max(f_max − center, center − µ)/halfWidth, and
// |T_j| ≤ T_deg(max(1, g)) there. The underflow side of the guard goes
// with it: with b < λ₀ the dominant component of z_j grows by T_j(γ) ≥ 1,
// so ‖z_j‖ falls below 1/chebRescale only for a start orthogonal to it,
// and inside [−1, 1] the |T_j(t)| = |cos(j·acos t)| of a generic start do
// not vanish together.
func chebGrowthBound(op Operator, center, halfWidth float64, deg int) float64 {
	fop, ok := op.(*FmmpOperator)
	if !ok || fop.Form != Symmetric {
		return math.Inf(1)
	}
	if _, uniform := fop.Q.Uniform(); !uniform {
		return math.Inf(1)
	}
	g := math.Max(UpperBoundLambda(fop.F)-center, center-ConservativeShift(fop.Q, fop.F)) / halfWidth
	if g <= 1 {
		return 1
	}
	return math.Cosh(float64(deg) * math.Acosh(g))
}

// finishCheb orients the final iterate and repoints the Work scratch so the
// next solve's vectors(n) call hands the caller-visible Vector back as the
// iterate (the swap inside the recurrence may have exchanged x and z).
func finishCheb(res *ChebyshevResult, x []float64, work *ChebyshevWork) {
	orientPositive(x)
	res.Vector = x
	if work != nil && &work.x[0] != &x[0] {
		work.x, work.z = x, work.x
	}
}

// chebMap computes out ← (w − c·x)/e, the degree-1 Chebyshev step
// T₁(A')·x with w = W·x.
func chebMap(dev *device.Device, out, w, x []float64, c, e float64) {
	inv := 1 / e
	if dev != nil {
		od, wd, xd := out, w, x
		dev.LaunchRange(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = (wd[i] - c*xd[i]) * inv
			}
		})
		return
	}
	for i := range out {
		out[i] = (w[i] - c*x[i]) * inv
	}
}

// chebMap2 computes out ← 2·(w − c·z)/e − out, the three-term recurrence
// step z_{j+1} = 2·A'·z_j − z_{j−1} with w = W·z and out holding z_{j−1}
// on entry.
func chebMap2(dev *device.Device, out, w, z []float64, c, e float64) {
	s := 2 / e
	if dev != nil {
		od, wd, zd := out, w, z
		dev.LaunchRange(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = s*(wd[i]-c*zd[i]) - od[i]
			}
		})
		return
	}
	for i := range out {
		out[i] = s*(w[i]-c*z[i]) - out[i]
	}
}
