package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/vec"
)

// The adaptive critical-window engine: a per-sweep-point method selector
// over the solver gears of this package. Where the gap is wide the shifted
// power iteration is cheapest (2·N memory, one matvec per step); as p
// approaches p_c the spectral gap collapses exponentially and
// Chebyshev-filtered restarts (quadratic rate improvement, still 3·N
// memory) take over, with shift-invert Lanczos and warm-started shifts µ
// carried along the p-sweep as the last gear. Selection is driven by an
// online gap estimate: a Lanczos probe (RitzGap) of at most k steps, which
// stops once its top Ritz pair meets the tolerance, whose Ritz values
// bound λ₀ and λ₁ from below by Cauchy interlacing, and from which both
// the power and the Chebyshev gear's matvec counts are predicted; auto runs
// the cheaper one. A Chebyshev gear that runs first starts from the probe's
// top Ritz vector (the Ritz handoff). A Chebyshev iterate that stalls is
// accepted if it passes the power gear's Right-form test; otherwise a gear
// that stalls falls back to power if power has not run yet, then to the
// shift-invert ladder.
//
// Everything here is deterministic — a probe starts from a fixed vector at
// a chain head and from the chain's own warm start after it, thresholds
// are pure arithmetic, escalation is a fixed ladder — so batched sweeps
// stay bit-identical at every worker count (the batch layer's contract).

// SolveMethod selects the eigensolver gear of a sweep point. The zero
// value is the plain power iteration.
type SolveMethod int

const (
	// SolvePower is the (optionally shifted) power iteration — the paper's
	// baseline and the right tool away from the critical window.
	SolvePower SolveMethod = iota
	// SolveAuto probes the gap at each point and runs the gear predicted
	// to need the fewest matvecs.
	SolveAuto
	// SolveChebyshev forces Chebyshev-filtered restarts.
	SolveChebyshev
	// SolveShiftInvert forces shift-invert Lanczos.
	SolveShiftInvert
)

func (m SolveMethod) String() string {
	switch m {
	case SolvePower:
		return "power"
	case SolveAuto:
		return "auto"
	case SolveChebyshev:
		return "chebyshev"
	case SolveShiftInvert:
		return "shiftinvert"
	default:
		return fmt.Sprintf("SolveMethod(%d)", int(m))
	}
}

// ParseSolveMethod parses the CLI spelling of a solve method. The empty
// string means SolvePower (the historical default).
func ParseSolveMethod(s string) (SolveMethod, error) {
	switch s {
	case "", "power":
		return SolvePower, nil
	case "auto":
		return SolveAuto, nil
	case "chebyshev", "cheb":
		return SolveChebyshev, nil
	case "shiftinvert", "shift-invert", "shift_invert", "si":
		return SolveShiftInvert, nil
	default:
		return SolvePower, fmt.Errorf("core: unknown solve method %q (want auto, power, chebyshev or shiftinvert)", s)
	}
}

// MethodState is the selector state a warm-start chain carries from point
// to point: the previous eigenvalue doubles as the next shift-invert shift
// (λ₀(p) is decreasing along increasing p, so the previous λ₀ lies above
// the next point's spectrum automatically). Chain-local by construction —
// reset it at every chain head to keep sweeps worker-count independent.
type MethodState struct {
	// HavePrev reports whether Start is a warm start, which then seeds
	// the gap probe, and PrevLambda the previous point's λ₀.
	HavePrev bool
	// PrevLambda is λ₀ of the previous chain point; one at or below the
	// probe's top Ritz value leaves shift-invert at its cold shift.
	PrevLambda float64
}

// AdaptiveWork is the per-worker scratch of adaptive solves: the power
// iterate pair (which also stages the Right-form result every gear
// returns), plus lazily allocated Chebyshev, shift-invert, and probe
// scratch — power-only sweeps never pay for the Krylov buffers — and the
// three chain-history vectors of ExtrapolateStart, allocated on a chain's
// first warm point.
type AdaptiveWork struct {
	// Power is the power-gear scratch; AdaptiveResult.Vector always
	// aliases its iterate, whatever gear produced it.
	Power *PowerWork
	cheb  *ChebyshevWork
	si    *ShiftInvertWork
	probe *KrylovWork
	sym   []float64 // symmetric-form start/result staging
	// hist holds the chain's converged vectors before the previous one,
	// newest first (ExtrapolateStart).
	hist [3][]float64
}

// NewAdaptiveWork returns scratch for dimension-n adaptive solves.
func NewAdaptiveWork(n int) *AdaptiveWork {
	return &AdaptiveWork{Power: NewPowerWork(n)}
}

func (aw *AdaptiveWork) symBuf(n int) []float64 {
	if len(aw.sym) != n {
		aw.sym = device.AllocVector(n)
	}
	return aw.sym
}

// AdaptiveOptions configures one adaptive solve.
type AdaptiveOptions struct {
	// Method is the requested gear; SolveAuto engages the selector.
	Method SolveMethod
	// Tol is the residual tolerance (applies to every gear). Default 1e-13.
	Tol float64
	// MaxIter caps matrix–vector products per gear attempt (0 = solver
	// defaults).
	MaxIter int
	// PowerShift is the spectral shift of the power gear (use
	// ConservativeShift); it also sharpens the probe's rate prediction.
	PowerShift float64
	// Start is the Right-form warm start; may alias Work.Power's iterate
	// (the continuation pattern). On a warm chain point (State.HavePrev) it
	// also seeds the gap probe, in its Symmetric form F^½·Start; a chain
	// head probes from a fixed start. It feeds the power gear, the power
	// fallback after a stalled Chebyshev gear, and shift-invert; a
	// Chebyshev gear after a failed power gear continues from
	// that gear's last iterate. A Chebyshev gear that runs first starts from
	// the gap probe's top Ritz vector instead. Nil cold-starts each gear
	// that would use it.
	Start []float64
	// Dev selects device-parallel BLAS-1 operations; nil runs serially.
	Dev *device.Device
	// Observer, when non-nil, receives the convergence trace of every gear
	// attempt of this point.
	Observer Observer
	// Work supplies reusable per-worker scratch. Nil allocates fresh.
	Work *AdaptiveWork
	// State, when non-nil, carries selector state along a warm-start chain
	// and is updated in place on success.
	State *MethodState
	// probeSteps overrides probeCap; only this package's tests set it.
	probeSteps int
	// fullProbe runs the probe as the engine did before it was warm and
	// self-stopping: from the fixed start, all of its steps. Tests compare
	// against it.
	fullProbe bool
}

// AdaptiveResult is the outcome of an adaptive solve.
type AdaptiveResult struct {
	// Method is the gear that produced the accepted result.
	Method SolveMethod
	// Escalations counts abandoned gear attempts before Method succeeded.
	Escalations int
	// Lambda is the dominant eigenvalue (formulation-invariant).
	Lambda float64
	// Vector is the Right-form eigenvector, unit 2-norm, non-negative
	// orientation; aliases Work.Power's iterate.
	Vector []float64
	// Iterations is the total matrix–vector product count across the
	// probe and every gear attempt.
	Iterations int
	// ProbeMatVecs is the part of Iterations the gap probe took: the
	// Lanczos steps it built, probeCap when it ran to the cap.
	ProbeMatVecs int
	// Residual is the accepted gear's final residual (in its own
	// formulation).
	Residual float64
	// Converged reports whether the accepted gear met Tol.
	Converged bool
	// Mu is the shift-invert shift that succeeded (0 when unused).
	Mu float64
	// Probed reports whether the selector ran a gap probe; Theta0/Theta1
	// are its Ritz values when it did.
	Probed         bool
	Theta0, Theta1 float64
	// PredictedMatVecs is the cost the selector predicted when it chose the
	// first gear: the probe plus that gear's predicted matvecs. It stays
	// the first gear's prediction across escalations, so Iterations over
	// PredictedMatVecs measures the misprediction. 0 when the first gear
	// has no predictor (shift-invert).
	PredictedMatVecs int
}

// predictEps is the error reduction both gear predictors are asked for.
const predictEps = 1e-10

// probeCap caps the Lanczos gap probe. The probe stops earlier, before its
// next matvec, once its top Ritz pair is resolved and the pair's residual
// estimate is at most the tolerance.
const probeCap = 24

// selectGear is the auto selector's cost rule on a resolved probe pair
// (θ₀, θ₁): it predicts the power gear's matvecs (PredictIterations at the
// shifted rate (θ₁−µ)/(θ₀−µ), one matvec per iteration) and the Chebyshev
// gear's (PredictChebyshevMatVecs over the lower filter edge the gear will
// use), and picks power only when it is predicted no dearer. It returns the
// chosen gear and its prediction.
func selectGear(theta0, theta1, mu, lower float64) (SolveMethod, int) {
	rate := theta1 / theta0
	if mu > 0 && mu < theta1 {
		rate = (theta1 - mu) / (theta0 - mu)
	}
	power, perr := PredictIterations(rate, predictEps)
	cheb, cerr := PredictChebyshevMatVecs(theta0, theta1, lower, defaultChebDegree, predictEps)
	if perr == nil && (cerr != nil || power <= cheb) {
		return SolvePower, power
	}
	return SolveChebyshev, cheb // 0 when neither predictor applies
}

// AdaptiveSolve computes the dominant eigenpair with the requested gear
// (or the auto selector). opR and opS are the Right and Symmetric
// formulations of the same (Q, F) problem — share diagonals via
// FmmpOperator.WithProcess; the power gear runs on opR, the
// Krylov/Chebyshev gears on opS. SolvePower runs only the power gear, as
// PowerIteration with Shift = PowerShift, and never touches opS, which may
// then be nil.
func AdaptiveSolve(opR, opS *FmmpOperator, opts AdaptiveOptions) (AdaptiveResult, error) {
	n := opR.Dim()
	switch opts.Method {
	case SolvePower:
	case SolveChebyshev, SolveShiftInvert, SolveAuto:
		if opS.Dim() != n {
			return AdaptiveResult{}, fmt.Errorf("core: formulation dimensions differ (%d vs %d)", n, opS.Dim())
		}
		if opS.Form != Symmetric {
			return AdaptiveResult{}, fmt.Errorf("core: adaptive solve needs the Symmetric formulation, got %v", opS.Form)
		}
	default:
		return AdaptiveResult{}, fmt.Errorf("core: unknown solve method %v", opts.Method)
	}
	work := opts.Work
	if work == nil {
		work = NewAdaptiveWork(n)
	}
	if work.Power == nil {
		work.Power = NewPowerWork(n)
	}
	tol := tolerance(opts.Tol)
	res := AdaptiveResult{}
	if opts.Method == SolvePower {
		_, _, err := powerGear(opR, opts, work, tol, opts.Start, &res)
		return res, err
	}

	// The other three gears need the probe: forced Chebyshev needs filter
	// edges, forced shift-invert needs a λ₀ bound for its shift ladder, and
	// auto needs the rate estimates.
	probeSteps := opts.probeSteps
	if probeSteps <= 0 {
		probeSteps = probeCap
	}

	// The probe starts on a warm chain point from the warm start in its
	// Symmetric form F^½·Start, staged straight into the probe basis, and at
	// a chain head from the fixed ritzStart vector. It stops once its top
	// Ritz pair meets tol. Book the steps it built: fewer than probeSteps
	// when it stops, the dimension clamps it or the Krylov space closes.
	var seed, weight []float64
	stop := tol
	if st := opts.State; st != nil && st.HavePrev && len(opts.Start) == n {
		seed, weight = opts.Start, opS.fsqrt
	}
	if opts.fullProbe {
		seed, weight, stop = nil, nil, 0
	}
	probe, probeErr := ritzGap(opS, probeSteps, seed, weight, stop, work.probeWork())
	res.Iterations += probe.built
	res.ProbeMatVecs = probe.built
	if probeErr != nil && !errors.Is(probeErr, ErrGapUnresolved) {
		return res, probeErr
	}
	theta0, theta1 := probe.theta0, probe.theta1
	res.Probed, res.Theta0, res.Theta1 = true, theta0, theta1
	resolved := probeErr == nil && RitzResolved(theta0, theta1)

	gear := opts.Method
	predicted := 0
	lower := ConservativeShift(opS.Q, opS.F) // the Chebyshev filter's provable lower edge
	switch {
	case gear == SolveAuto && resolved:
		gear, predicted = selectGear(theta0, theta1, opts.PowerShift, lower)
	case gear == SolveAuto:
		gear = SolveShiftInvert // the unresolved-probe default: deepest window
	case gear == SolveChebyshev && resolved:
		predicted, _ = PredictChebyshevMatVecs(theta0, theta1, lower, defaultChebDegree, predictEps)
	}
	if predicted > 0 {
		res.PredictedMatVecs = probe.built + predicted
	}

	start := opts.Start
	powerTried := gear == SolvePower
	if powerTried {
		next, escalate, err := powerGear(opR, opts, work, tol, start, &res)
		if !escalate {
			return res, err
		}
		start, gear = next, SolveChebyshev
	}

	// The Krylov/Chebyshev gears run in the Symmetric formulation. A
	// Chebyshev gear that runs first takes the probe's top Ritz vector (the
	// Ritz handoff), which is often converged already; every other gear
	// starts from the staged Right-form start.
	symStart := work.symBuf(n)
	var handoff *ritzProbe
	if gear == SolveChebyshev && resolved && !powerTried {
		work.probe.ritzVector(symStart, probe.y)
		handoff = &probe
	} else {
		stageSymmetric(symStart, opS, start)
	}

	if gear == SolveChebyshev && resolved {
		// Safe filter edges: θ₁ ≤ λ₁ and θ₀ ≤ λ₀ (interlacing), so
		// b = θ₁ + ½(θ₀−θ₁) < θ₀ ≤ λ₀ always separates once the probe has
		// converged to λ₁ from below, and a = ConservativeShift ≤ λ_min.
		if work.cheb == nil {
			work.cheb = NewChebyshevWork(n)
		}
		cres, err := ChebyshevIteration(opS, ChebyshevOptions{
			Tol: tol, LowerEdge: lower, UpperEdge: chebyshevEdge(theta0, theta1), MaxMatVecs: opts.MaxIter,
			Start: symStart, Dev: opts.Dev, Work: work.cheb, Observer: opts.Observer,
			startRitz: handoff,
		})
		res.Iterations += cres.MatVecs
		if err == nil {
			res.Method = SolveChebyshev
			res.Lambda, res.Residual, res.Converged = cres.Lambda, cres.Residual, true
			if cerr := acceptSymmetric(&res, work, opS, cres.Vector); cerr != nil {
				return res, cerr
			}
			finishAdaptive(&res, opts.State)
			return res, nil
		}
		if !(errors.Is(err, ErrStagnated) || errors.Is(err, ErrNoConvergence)) {
			return res, err
		}
		if ok, cerr := acceptRightForm(opR, opS, opts, work, tol, cres.Vector, &res); ok || cerr != nil {
			return res, cerr
		}
		// Mis-set edge or tighter window than the probe suggested.
		res.Escalations++
		if opts.Method == SolveAuto && !powerTried {
			// Power has not run at this point: try it from the original
			// warm start, which the Chebyshev attempt left untouched, before
			// paying for shift-invert.
			next, escalate, err := powerGear(opR, opts, work, tol, opts.Start, &res)
			if !escalate {
				return res, err
			}
			stageSymmetric(symStart, opS, next)
		} else {
			// Shift-invert continues from the partial iterate.
			copy(symStart, cres.Vector)
		}
		gear = SolveShiftInvert
	} else if gear == SolveChebyshev {
		// Forced Chebyshev with an unresolved probe cannot set safe edges.
		res.Escalations++
		gear = SolveShiftInvert
	}

	// Shift-invert ladder. The warm shift is the previous chain point's λ₀
	// (guaranteed above the current spectrum on monotone sweeps); cold
	// chains fall back to the provable bound λ₀ ≤ f_max. Failed attempts
	// tighten (after ErrNoConvergence, toward the improved λ estimate) or
	// widen (after ErrBadShift, toward f_max and beyond) deterministically.
	if work.si == nil {
		work.si = NewShiftInvertWork(n)
	}
	upper := UpperBoundLambda(opS.F)
	mu := upper
	if st := opts.State; st != nil && st.HavePrev && st.PrevLambda > theta0 {
		mu = st.PrevLambda
	}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		sres, err := ShiftInvertLanczos(opS, ShiftInvertOptions{
			Tol: tol, Shift: mu, Start: symStart, Dev: opts.Dev,
			Work: work.si, Observer: opts.Observer,
		})
		res.Iterations += sres.MatVecs
		if err == nil {
			res.Method = SolveShiftInvert
			res.Mu = mu
			res.Lambda, res.Residual, res.Converged = sres.Lambda, sres.Residual, true
			if cerr := acceptSymmetric(&res, work, opS, sres.Vector); cerr != nil {
				return res, cerr
			}
			finishAdaptive(&res, opts.State)
			return res, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, ErrBadShift):
			// µ landed at or below λ₀: widen toward (and past) the provable
			// upper bound.
			res.Escalations++
			if mu < upper {
				mu = upper
			} else {
				mu = upper * (1 + math.Ldexp(1, attempt-6)) // ×(1+2^(a−6)): 1.015…1.25
			}
		case errors.Is(err, ErrNoConvergence):
			// Progress was made: restart from the improved iterate with a
			// shift tightened toward the improved λ estimate. The margin
			// stays above the Rayleigh error ≈ residual²/gap by using the
			// residual itself (gap ≥ residual whenever SI is converging).
			res.Escalations++
			copy(symStart, sres.Vector)
			mu = sres.Lambda + math.Max(4*sres.Residual, 1e-12*math.Abs(sres.Lambda))
		default:
			res.Method = SolveShiftInvert
			res.Mu = mu
			return res, err
		}
	}
	res.Method = SolveShiftInvert
	res.Mu = mu
	return res, fmt.Errorf("core: adaptive shift-invert ladder exhausted: %w", lastErr)
}

// powerGear runs the Right-form power gear from start and books it into
// res. A start aliasing the power scratch iterate (the sweep's continuation
// pattern) is consumed by the gear, so next — the Right-form start of the
// gear that follows — is then the power gear's last iterate, and start
// otherwise. escalate reports that an auto solve moves past a stalled or
// exhausted power gear; on every other outcome the point is finished and
// err is its result.
func powerGear(opR *FmmpOperator, opts AdaptiveOptions, work *AdaptiveWork, tol float64, start []float64, res *AdaptiveResult) (next []float64, escalate bool, err error) {
	n := opR.Dim()
	consumed := len(start) == n && len(work.Power.x) == n && &start[0] == &work.Power.x[0]
	pres, err := PowerIteration(opR, PowerOptions{
		Tol: tol, MaxIter: opts.MaxIter, Start: start,
		Shift: opts.PowerShift, Dev: opts.Dev, Work: work.Power,
		Observer: opts.Observer,
	})
	if consumed {
		start = pres.Vector
	}
	res.Method = SolvePower
	res.Lambda, res.Vector = pres.Lambda, pres.Vector
	res.Iterations += pres.Iterations
	res.Residual, res.Converged = pres.Residual, pres.Converged
	// Inside a misjudged window the power gear stalls; escalate instead of
	// failing the sweep point.
	if err != nil && opts.Method == SolveAuto && (errors.Is(err, ErrStagnated) || errors.Is(err, ErrNoConvergence)) {
		res.Escalations++
		return start, true, nil
	}
	finishAdaptive(res, opts.State)
	return start, false, err
}

// stageSymmetric writes the unit Symmetric-form start x_S = F^½·x_R/‖·‖
// for the Right-form start into dst; a nil or mis-sized start selects the
// fitness start. The product goes through the operator's cached √f.
func stageSymmetric(dst []float64, opS *FmmpOperator, start []float64) {
	if len(start) == len(dst) {
		vec.Mul(dst, start, opS.fsqrt)
	} else {
		opS.fitnessStartInto(dst)
		vec.Mul(dst, dst, opS.fsqrt)
	}
	if nrm := vec.Norm2(dst); nrm > 0 {
		vec.Scale(dst, 1/nrm)
	} else {
		vec.Fill(dst, 1)
	}
}

// acceptSymmetric converts a Symmetric-form eigenvector into the Right
// form, staged in the power scratch so Vector obeys the same aliasing
// contract as the power gear (and remains a valid warm start).
func acceptSymmetric(res *AdaptiveResult, work *AdaptiveWork, opS *FmmpOperator, symVec []float64) error {
	x, _ := work.Power.vectors(len(symVec))
	if err := rightForm(x, opS, symVec); err != nil {
		return err
	}
	res.Vector = x
	return nil
}

// rightForm writes the unit, positively oriented Right-form vector of the
// Symmetric-form symVec into dst. The product with F^(−½) goes through the
// operator's cached √f.
func rightForm(dst []float64, opS *FmmpOperator, symVec []float64) error {
	for i, v := range symVec {
		dst[i] = v * (1 / opS.fsqrt[i])
	}
	nrm := vec.Norm2(dst)
	if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
		return errors.New("core: eigenvector collapsed in formulation conversion")
	}
	vec.Scale(dst, 1/nrm)
	orientPositive(dst)
	return nil
}

// acceptRightForm applies the power gear's own convergence test to the
// iterate a Chebyshev gear gave up on: converted to the Right form x, one
// opR matvec, then ‖W_R·x − λx‖ ≤ tol with λ the shifted Rayleigh quotient,
// through the power step's fused passes. The Symmetric residual the gear
// monitors can floor just above a tol the Right form meets, and the
// Right-form residual is what the power gear would accept. On success the
// point is finished with x, staged so Vector aliases the power iterate; on
// refusal nothing but scratch has changed. x is built in the power product
// buffer and W_R·x in the Chebyshev one, so a warm start aliasing the power
// iterate survives for the fallback.
func acceptRightForm(opR, opS *FmmpOperator, opts AdaptiveOptions, work *AdaptiveWork, tol float64, symVec []float64, res *AdaptiveResult) (bool, error) {
	n := len(symVec)
	_, x := work.Power.vectors(n)
	_, _, w := work.cheb.vectors(n)
	if err := rightForm(x, opS, symVec); err != nil {
		return false, err
	}
	opR.Apply(w, x)
	res.Iterations++
	mu := opts.PowerShift
	lamShifted, nrm := opts.Dev.ShiftedDotNorm2(x, w, mu)
	r := opts.Dev.ShiftedResidualScale(x, w, mu, lamShifted, 1/nrm)
	if !(r <= tol) {
		return false, nil
	}
	work.Power.x, work.Power.w = x, work.Power.x
	res.Method = SolveChebyshev
	res.Lambda, res.Vector = lamShifted+mu, x
	res.Residual, res.Converged = r, true
	finishAdaptive(res, opts.State)
	return true, nil
}

// finishAdaptive records the accepted solve into the chain state.
func finishAdaptive(res *AdaptiveResult, st *MethodState) {
	if st == nil {
		return
	}
	st.HavePrev = true
	st.PrevLambda = res.Lambda
}

func (aw *AdaptiveWork) probeWork() *KrylovWork {
	if aw.probe == nil {
		aw.probe = &KrylovWork{}
	}
	return aw.probe
}
