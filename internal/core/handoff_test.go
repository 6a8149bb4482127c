package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

// The Ritz handoff: AdaptiveSolve's gap probe returns its top Ritz vector
// and the residual estimate β_k·|y_{k−1}|, and a Chebyshev gear that runs
// first starts from that vector with its first restart sized from the
// estimate. These tests check the estimate against the measured residual,
// the handoff against a direct ChebyshevIteration from the same vector,
// the early-closing Krylov space, and the Right-form check that accepts a
// stalled Chebyshev iterate by the power gear's own test.

// measuredRitzResidual assembles the probe's top Ritz vector on kw, scales
// it to unit norm, and returns ‖W·x − θ₀·x‖.
func measuredRitzResidual(op Operator, kw *KrylovWork, p ritzProbe) float64 {
	n := op.Dim()
	x, w := make([]float64, n), make([]float64, n)
	kw.ritzVector(x, p.y)
	vec.Normalize2(x)
	op.Apply(w, x)
	return residual(nil, w, x, p.theta0)
}

// The estimate tracks the measured residual to 1e-6 relative wherever the
// residual is above the rounding floor 8·ε·f_max·√N, and stays under the
// floor where the measured residual does. An 8-step probe leaves residuals
// of 1e-10 to 1e-3, which the estimate matches to 1e-8 relative or better;
// a 24-step probe is at or below the floor except near p_c at ν = 17.
func TestRitzResidualEstimateMatchesMeasured(t *testing.T) {
	aboveFloor := 0
	check := func(label string, op *FmmpOperator, kw *KrylovWork) {
		t.Helper()
		_, fmax := op.F.Bounds()
		floor := 8 * 0x1p-52 * fmax * math.Sqrt(float64(op.Dim()))
		for _, k := range []int{8, 24} {
			p, err := ritzGap(op, k, nil, nil, 0, kw)
			if err != nil {
				t.Fatalf("%s, k=%d: %v", label, k, err)
			}
			est, meas := p.residual, measuredRitzResidual(op, kw, p)
			if math.Abs(est-meas) > 1e-6*meas+floor {
				t.Errorf("%s, k=%d: estimate %.10g, measured %.10g, floor %.3g", label, k, est, meas, floor)
			}
			if meas > floor {
				aboveFloor++
			}
		}
	}
	for _, c := range []struct {
		nu    int
		sigma float64
		fracs []float64
	}{
		{8, 10, []float64{0.3, 0.5, 0.75, 0.9, 0.97, 1.0, 1.03, 1.08}},
		{12, 10, []float64{0.3, 0.5, 0.75, 0.9, 0.97, 1.0, 1.03, 1.08}},
		{17, 2, []float64{0.3, 0.9, 0.97, 1.0, 1.03, 1.08}},
	} {
		l, err := landscape.NewSinglePeak(c.nu, c.sigma, 1)
		if err != nil {
			t.Fatal(err)
		}
		pc := 1 - math.Pow(c.sigma, -1/float64(c.nu))
		kw := NewKrylovWork(1 << c.nu)
		for _, frac := range c.fracs {
			opS, err := NewFmmpOperator(mutation.MustUniform(c.nu, frac*pc), l, Symmetric, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("ν=%d σ=%g at %g·p_c", c.nu, c.sigma, frac), opS, kw)
		}
	}
	r := rng.New(17)
	kw := NewKrylovWork(1 << 12)
	for _, p := range []float64{0.005, 0.02, 0.05} {
		l, err := landscape.NewRandom(12, 5, 1, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		opS, err := NewFmmpOperator(mutation.MustUniform(12, p), l, Symmetric, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("ν=12 random landscape at p=%g", p), opS, kw)
	}
	if aboveFloor < 20 {
		t.Errorf("only %d probes left a residual above the rounding floor; the relative check proved little", aboveFloor)
	}
}

// Auto and forced Chebyshev start from the probe's top Ritz vector, whatever
// the warm start, and size the first restart from the probe's estimate: the
// solve is bit-identical to ChebyshevIteration run directly from that
// vector. A 10-step probe leaves an estimate above tol, so the first
// restart is residual-sized rather than a single step.
func TestAdaptiveChebyshevStartsFromRitzVector(t *testing.T) {
	const nu, probeSteps, tol = 12, 10, 1e-12
	q, l, _ := criticalProblem(t, nu, 0.98)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	lower := ConservativeShift(opS.Q, opS.F)

	kw := NewKrylovWork(opS.Dim())
	p, err := ritzGap(opS, probeSteps, nil, nil, 0, kw)
	if err != nil {
		t.Fatal(err)
	}
	b := chebyshevEdge(p.theta0, p.theta1)
	if deg := chebRestartDegree(defaultChebDegree, p.theta0, p.residual, tol, lower, b); deg <= 1 || deg >= defaultChebDegree {
		t.Fatalf("estimate %g sizes the first restart at %d steps; the test wants a residual-sized one", p.residual, deg)
	}
	sym := make([]float64, opS.Dim())
	kw.ritzVector(sym, p.y)
	cres, err := ChebyshevIteration(opS, ChebyshevOptions{
		Tol: tol, LowerEdge: lower, UpperEdge: b, Start: sym, startRitz: &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, opS.Dim())
	if err := rightForm(want, opS, cres.Vector); err != nil {
		t.Fatal(err)
	}
	cold, warm := opR.FitnessStart(), vec.Clone(opR.FitnessStart())
	warm[0] *= 3
	for _, method := range []SolveMethod{SolveAuto, SolveChebyshev} {
		for _, start := range [][]float64{nil, cold, warm} {
			got, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
				Method: method, Tol: tol, Start: start, ProbeSteps: probeSteps,
				PowerShift: ConservativeShift(q, l),
			})
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			if got.Method != SolveChebyshev || got.Escalations != 0 {
				t.Fatalf("%v: finished on %v after %d escalations", method, got.Method, got.Escalations)
			}
			if got.Iterations != p.built+cres.MatVecs || !sameBits(got.Lambda, cres.Lambda) {
				t.Fatalf("%v: %d matvecs, λ %v; direct from the Ritz vector %d + %d, λ %v",
					method, got.Iterations, got.Lambda, p.built, cres.MatVecs, cres.Lambda)
			}
			for i := range want {
				if !sameBits(got.Vector[i], want[i]) {
					t.Fatalf("%v: x[%d] = %v, direct from the Ritz vector %v", method, i, got.Vector[i], want[i])
				}
			}
		}
	}
}

// At ν = 10, σ = 2 the probe's Krylov space closes to rounding around step
// 20 (β ≈ 1e-13 at about 1e-13·θ₀): the 24-step probe's Ritz pair is
// converged and its estimate at rounding level. The self-stopping probe
// meets tol no later than that closing step, and the handoff finishes the
// point with one filter step and its Rayleigh check. A space that closes
// exactly — a breakdown, built < k — hands off with its breakdown β: the
// estimate is 0 and the Ritz vector is an eigenvector.
func TestRitzHandoffEarlyClosingKrylovSpace(t *testing.T) {
	const nu, sigma = 10, 2.0
	l, err := landscape.NewSinglePeak(nu, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(sigma, -1/float64(nu))
	tol := DefaultTolerance(l)
	kw := NewKrylovWork(1 << nu)
	for _, frac := range []float64{0.5, 0.9, 1.0} {
		q := mutation.MustUniform(nu, frac*pc)
		opR, _ := NewFmmpOperator(q, l, Right, nil)
		opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
		full, err := ritzGap(opS, 24, nil, nil, 0, kw)
		if err != nil {
			t.Fatal(err)
		}
		closed := -1
		for j, b := range kw.beta[:full.built-1] {
			if b < 1e-12*full.theta0 {
				closed = j
				break
			}
		}
		if closed < 0 || full.residual > tol {
			t.Fatalf("%g·p_c: no step closes the space (first β below 1e-12·θ₀: %d), estimate %g", frac, closed, full.residual)
		}
		p, err := ritzGap(opS, 24, nil, nil, tol, kw)
		if err != nil {
			t.Fatal(err)
		}
		if p.built > closed+1 || !(p.residual <= tol) {
			t.Fatalf("%g·p_c: the self-stopping probe built %d steps to estimate %g; the space closes at step %d", frac, p.built, p.residual, closed+1)
		}
		res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
			Method: SolveAuto, Tol: tol, Start: opR.FitnessStart(), PowerShift: ConservativeShift(q, l),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != SolveChebyshev || res.Iterations != p.built+2 || res.ProbeMatVecs != p.built || !(res.Residual <= tol) {
			t.Errorf("%g·p_c: %v, %d matvecs (probe %d), residual %g; want Chebyshev with probe %d + 2",
				frac, res.Method, res.Iterations, res.ProbeMatVecs, res.Residual, p.built)
		}
	}

	// diag(2, 2, 1, 1) from the uniform start: exact dyadic arithmetic closes
	// the Krylov space after two steps with β = 0.
	op := diagOp{[]float64{2, 2, 1, 1}}
	kw = NewKrylovWork(4)
	p, err := ritzGap(op, 24, []float64{1, 1, 1, 1}, nil, 0, kw)
	if err != nil {
		t.Fatal(err)
	}
	if p.built != 2 || math.Abs(p.theta0-2) > 1e-15 || math.Abs(p.theta1-1) > 1e-15 || p.residual != 0 {
		t.Fatalf("built %d steps, θ = (%v, %v), estimate %v; want a breakdown after 2 with (2, 1) and 0", p.built, p.theta0, p.theta1, p.residual)
	}
	x := make([]float64, 4)
	kw.ritzVector(x, p.y)
	if math.Abs(math.Abs(x[0])-math.Sqrt2/2) > 1e-15 || x[0] != x[1] || math.Abs(x[2]) > 1e-15 || math.Abs(x[3]) > 1e-15 {
		t.Fatalf("Ritz vector %v, want the eigenvector (1, 1, 0, 0)/√2", x)
	}
	cres, err := ChebyshevIteration(op, ChebyshevOptions{
		Tol: 1e-14, UpperEdge: chebyshevEdge(p.theta0, p.theta1), Start: x, startRitz: &p,
	})
	if err != nil || cres.MatVecs != 2 || math.Abs(cres.Lambda-2) > 1e-15 {
		t.Fatalf("Chebyshev from the breakdown handoff: %d matvecs, λ %v, %v; want 2 matvecs, λ 2", cres.MatVecs, cres.Lambda, err)
	}
}

// At 0.9987·p_c on the ν = 17, σ = 2 single peak (critical-nu17's offset-0
// grid), the Chebyshev gear from the Ritz vector floors at a Symmetric
// residual of about 1.28e-11 against tol 1.03e-11 and stalls. Its iterate in
// Right form passes the power gear's own test, so the point is accepted
// there for one extra matvec, instead of falling back to power (474
// matvecs in all).
func TestAdaptiveRightFormCheckAcceptsStalledChebyshev(t *testing.T) {
	const nu, sigma = 17, 2.0
	l, err := landscape.NewSinglePeak(nu, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(sigma, -1/float64(nu))
	q := mutation.MustUniform(nu, (0.90+(1.08-0.90)/31*17)*pc)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	tol := DefaultTolerance(l)

	kw := NewKrylovWork(opS.Dim())
	p, err := ritzGap(opS, 24, nil, nil, 0, kw)
	if err != nil {
		t.Fatal(err)
	}
	sym := make([]float64, opS.Dim())
	kw.ritzVector(sym, p.y)
	cres, err := ChebyshevIteration(opS, ChebyshevOptions{
		Tol: tol, LowerEdge: ConservativeShift(opS.Q, opS.F), UpperEdge: chebyshevEdge(p.theta0, p.theta1),
		Start: sym, startRitz: &p,
	})
	if !errors.Is(err, ErrStagnated) || !(cres.Residual > tol) {
		t.Fatalf("Chebyshev from the Ritz vector: %v, residual %g (tol %g); want a stall above tol", err, cres.Residual, tol)
	}
	want := make([]float64, opS.Dim())
	if err := rightForm(want, opS, cres.Vector); err != nil {
		t.Fatal(err)
	}

	work := NewAdaptiveWork(opS.Dim())
	gears := &gearLog{}
	got, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
		Method: SolveAuto, Tol: tol, Start: opR.FitnessStart(), PowerShift: ConservativeShift(q, l),
		Work: work, Observer: gears,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != SolveChebyshev || got.Escalations != 0 || len(gears.kinds) != 1 || !got.Converged || !(got.Residual <= tol) {
		t.Fatalf("finished on %v (gears %v) after %d escalations, residual %g; want Chebyshev accepted in Right form", got.Method, gears.kinds, got.Escalations, got.Residual)
	}
	if got.Iterations != p.built+cres.MatVecs+1 {
		t.Errorf("%d matvecs, want probe %d + Chebyshev %d + 1 Right-form check", got.Iterations, p.built, cres.MatVecs)
	}
	if &got.Vector[0] != &work.Power.x[0] {
		t.Error("the accepted vector does not alias the power iterate")
	}
	for i := range want {
		if !sameBits(got.Vector[i], want[i]) {
			t.Fatalf("x[%d] = %v, Right form of the stalled iterate %v", i, got.Vector[i], want[i])
		}
	}
	// λ is the Right-form Rayleigh quotient the check measured: first-order
	// accurate in the eigenvector error (W_R is not symmetric), so it agrees
	// with the Symmetric one to about the residual over the gap, not to ε.
	if math.Abs(got.Lambda-cres.Lambda) > 1e-10*cres.Lambda {
		t.Errorf("λ %v, Chebyshev's Rayleigh quotient %v", got.Lambda, cres.Lambda)
	}
}
