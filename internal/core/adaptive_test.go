package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/landscape"
	"repro/internal/mutation"
)

// criticalProblem returns a single-peak problem near its error threshold
// p_c = 1 − σ^(−1/ν), where the spectral gap is small and the Krylov gears
// earn their keep.
func criticalProblem(t *testing.T, nu int, frac float64) (*mutation.Process, landscape.Landscape, float64) {
	t.Helper()
	l, err := landscape.NewSinglePeak(nu, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(10, -1/float64(nu))
	p := frac * pc
	q := mutation.MustUniform(nu, p)
	return q, l, p
}

func referenceLambda(t *testing.T, q *mutation.Process, l landscape.Landscape) (float64, []float64) {
	t.Helper()
	op, err := NewFmmpOperator(q, l, Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PowerIteration(op, PowerOptions{
		Tol: 1e-12, MaxIter: 5000000, Start: FitnessStart(l),
		Shift: ConservativeShift(q, l),
	})
	if err != nil && !errors.Is(err, ErrStagnated) {
		t.Fatal(err)
	}
	return res.Lambda, res.Vector
}

func TestChebyshevMatchesPower(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.9)
	want, _ := referenceLambda(t, q, l)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	theta0, theta1, err := RitzGap(opS, 24, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChebyshevIteration(opS, ChebyshevOptions{
		Tol: 1e-12, UpperEdge: theta1 + 0.5*(theta0-theta1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %.15g, power reference %.15g", res.Lambda, want)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("residual %g above tolerance", res.Residual)
	}
}

func TestChebyshevRejectsEmptyInterval(t *testing.T) {
	q, l, _ := criticalProblem(t, 6, 0.5)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	if _, err := ChebyshevIteration(opS, ChebyshevOptions{UpperEdge: 0}); err == nil {
		t.Fatal("expected an error for an empty damping interval")
	}
}

func TestShiftInvertMatchesPower(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.95)
	want, _ := referenceLambda(t, q, l)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	res, err := ShiftInvertLanczos(opS, ShiftInvertOptions{
		Tol: 1e-12, Shift: UpperBoundLambda(l),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %.15g, power reference %.15g", res.Lambda, want)
	}
}

func TestShiftInvertDetectsBadShift(t *testing.T) {
	q, l, _ := criticalProblem(t, 6, 0.5)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	want, _ := referenceLambda(t, q, l)
	// A shift at half the dominant eigenvalue is inside the spectrum:
	// (µI − S) is indefinite and CG must flag it quickly.
	_, err := ShiftInvertLanczos(opS, ShiftInvertOptions{Tol: 1e-12, Shift: want / 2})
	if !errors.Is(err, ErrBadShift) {
		t.Fatalf("got %v, want ErrBadShift", err)
	}
}

func TestRitzGapInterlacesDenseSpectrum(t *testing.T) {
	q, l, _ := criticalProblem(t, 7, 0.8)
	vals := denseSpectrum(t, q, l)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	theta0, theta1, err := RitzGap(opS, 30, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cauchy interlacing: Ritz values are lower bounds (up to roundoff).
	if theta0 > vals[0]+1e-10 || theta1 > vals[1]+1e-10 {
		t.Fatalf("Ritz values (%.12g, %.12g) exceed eigenvalues (%.12g, %.12g)",
			theta0, theta1, vals[0], vals[1])
	}
	// And with a 30-step probe at ν=7 they should be tight.
	if math.Abs(theta0-vals[0]) > 1e-8 || math.Abs(theta1-vals[1]) > 1e-6 {
		t.Fatalf("probe not tight: (%.12g, %.12g) vs (%.12g, %.12g)",
			theta0, theta1, vals[0], vals[1])
	}
}

func TestAdaptiveSolveAutoFarFromThresholdPicksPower(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.4)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
		Method: SolveAuto, Tol: 1e-12, Start: FitnessStart(l),
		PowerShift: ConservativeShift(q, l),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != SolvePower {
		t.Fatalf("far from threshold the selector picked %v, want power", res.Method)
	}
	want, _ := referenceLambda(t, q, l)
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %.15g, want %.15g", res.Lambda, want)
	}
}

func TestAdaptiveSolveGearsAgreeNearThreshold(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.98)
	want, wantVec := referenceLambda(t, q, l)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	for _, m := range []SolveMethod{SolveAuto, SolveChebyshev, SolveShiftInvert, SolveLanczos} {
		res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
			Method: m, Tol: 1e-12, Start: FitnessStart(l),
			PowerShift: ConservativeShift(q, l),
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(res.Lambda-want) > 1e-8 {
			t.Fatalf("%v: λ = %.15g, want %.15g", m, res.Lambda, want)
		}
		// Right-form eigenvectors must agree up to sign (orientation fixes
		// the sign, so directly).
		var dot float64
		for i := range res.Vector {
			dot += res.Vector[i] * wantVec[i]
		}
		if dot < 1-1e-6 {
			t.Fatalf("%v: eigenvector overlap %g with power reference", m, dot)
		}
	}
}

func TestAdaptiveSolveWarmShiftChain(t *testing.T) {
	// Sweep three p values up to near-critical along one chain: the state
	// must carry λ₀ forward, and every point must converge with a bounded
	// matvec count.
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(10, -1/float64(nu))
	work := NewAdaptiveWork(1 << nu)
	state := &MethodState{}
	var start []float64
	for _, frac := range []float64{0.90, 0.95, 0.99} {
		q := mutation.MustUniform(nu, frac*pc)
		opR, _ := NewFmmpOperator(q, l, Right, nil)
		opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
		res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
			Method: SolveAuto, Tol: 1e-11, Start: start,
			PowerShift: ConservativeShift(q, l), Work: work, State: state,
		})
		if err != nil {
			t.Fatalf("p = %g·p_c: %v", frac, err)
		}
		if !state.HavePrev || state.PrevLambda != res.Lambda {
			t.Fatalf("state not updated at p = %g·p_c", frac)
		}
		if res.Iterations > 100000 {
			t.Fatalf("p = %g·p_c: unbounded solve (%d matvecs)", frac, res.Iterations)
		}
		want, _ := referenceLambda(t, q, l)
		if math.Abs(res.Lambda-want) > 1e-8 {
			t.Fatalf("p = %g·p_c: λ = %.15g, want %.15g", frac, res.Lambda, want)
		}
		start = res.Vector // continuation: aliases work.Power's iterate
	}
}

func TestParseSolveMethod(t *testing.T) {
	cases := []struct {
		in   string
		want SolveMethod
		ok   bool
	}{
		{"", SolvePower, true},
		{"power", SolvePower, true},
		{"auto", SolveAuto, true},
		{"chebyshev", SolveChebyshev, true},
		{"cheb", SolveChebyshev, true},
		{"shiftinvert", SolveShiftInvert, true},
		{"shift-invert", SolveShiftInvert, true},
		{"shift_invert", SolveShiftInvert, true},
		{"lanczos", SolveLanczos, true},
		{"newton", SolvePower, false},
	}
	for _, c := range cases {
		got, err := ParseSolveMethod(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseSolveMethod(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSolveMethod(%q) accepted", c.in)
		}
	}
	for _, m := range []SolveMethod{SolvePower, SolveAuto, SolveChebyshev, SolveShiftInvert, SolveLanczos} {
		back, err := ParseSolveMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip %v → %q → %v, %v", m, m.String(), back, err)
		}
	}
}

// The auto selector's cost rule on synthetic probe pairs: power runs only
// when its predicted matvecs are no more than Chebyshev's.
func TestSelectGearCostRule(t *testing.T) {
	cases := []struct {
		name                      string
		theta0, theta1, mu, lower float64
		wantGear                  SolveMethod
		wantPredicted             int
	}{
		// Rate 0.25: 17 power steps against one 31-matvec restart.
		{"wide gap, power wins", 2, 0.5, 0, 0, SolvePower, 17},
		// Rate 0.99: thousands of power steps, six restarts.
		{"narrow gap, chebyshev wins", 1, 0.99, 0, 0, SolveChebyshev, 186},
		// The ν=11, 0.3·p_c single peak: unshifted rate 0.625 costs 49
		// steps, the shift cuts it to 23 and power wins.
		{"unshifted rate loses", 1.6, 1, 0, 0, SolveChebyshev, 31},
		{"shift makes power win", 1.6, 1, 0.66, 0, SolvePower, 23},
		// 31 power steps against one 31-matvec restart: ties go to power.
		{"tie goes to power", 2, 0.94, 0, 0, SolvePower, 31},
		// A shift at or above θ₁ is ignored (the shifted rate would be
		// meaningless), so this is the narrow-gap case again.
		{"shift above theta1 ignored", 1, 0.99, 0.995, 0, SolveChebyshev, 186},
		// Rate 0.8 shifted by 0.4 costs 57 power steps. Over [0, 0.9] the
		// filter needs two restarts (62); the lower edge 0.4 narrows the
		// interval to [0.4, 0.9] and one restart (31) suffices.
		{"no lower edge, power wins", 1, 0.8, 0.4, 0, SolvePower, 57},
		{"lower edge makes chebyshev win", 1, 0.8, 0.4, 0.4, SolveChebyshev, 31},
		// The lower edge shrinks the narrow-gap case from 6 restarts to 4.
		{"narrow gap with lower edge", 1, 0.99, 0, 0.5, SolveChebyshev, 124},
	}
	for _, c := range cases {
		gear, predicted := selectGear(c.theta0, c.theta1, c.mu, c.lower)
		if gear != c.wantGear || predicted != c.wantPredicted {
			t.Errorf("%s: selectGear(%g, %g, %g, %g) = %v, %d; want %v, %d",
				c.name, c.theta0, c.theta1, c.mu, c.lower, gear, predicted, c.wantGear, c.wantPredicted)
		}
	}
	if cheb, _ := PredictChebyshevMatVecs(2, 0.94, 0, defaultChebDegree, predictEps); cheb != 31 {
		t.Errorf("tie case: Chebyshev predicts %d matvecs, want 31", cheb)
	}
}

func TestPredictChebyshevMatVecs(t *testing.T) {
	for _, degree := range []int{1, 7, 30} {
		prev := 0
		// Closing the gap from θ₁/θ₀ = 0.05 to 0.9999 never makes the
		// Chebyshev gear cheaper, and every count is whole restarts.
		for s := 0.05; s < 0.9999; s = 1 - (1-s)*0.8 {
			got, err := PredictChebyshevMatVecs(1, s, 0, degree, 1e-10)
			if err != nil {
				t.Fatalf("degree %d, θ₁ = %g: %v", degree, s, err)
			}
			if got%(degree+1) != 0 {
				t.Errorf("degree %d, θ₁ = %g: %d matvecs is not whole restarts of %d", degree, s, got, degree+1)
			}
			if got < prev {
				t.Errorf("degree %d: prediction fell from %d to %d as θ₁ rose to %g", degree, prev, got, s)
			}
			prev = got
		}
		if prev <= degree+1 {
			t.Errorf("degree %d: the narrowest gap still predicts one restart (%d)", degree, prev)
		}
	}
	// A tighter eps never costs less.
	loose, _ := PredictChebyshevMatVecs(1, 0.99, 0, 30, 1e-6)
	tight, _ := PredictChebyshevMatVecs(1, 0.99, 0, 30, 1e-12)
	if tight < loose {
		t.Errorf("eps 1e-12 predicts %d matvecs, eps 1e-6 %d", tight, loose)
	}
	// Raising the lower edge toward b narrows the interval and never costs
	// more; a negative edge counts as 0.
	prev := math.MaxInt
	for _, lower := range []float64{-1, 0, 0.2, 0.5, 0.9, 0.99} {
		got, err := PredictChebyshevMatVecs(1, 0.99, lower, 1, 1e-10)
		if err != nil {
			t.Fatalf("lower edge %g: %v", lower, err)
		}
		if got > prev {
			t.Errorf("lower edge %g predicts %d matvecs, more than %d below it", lower, got, prev)
		}
		prev = got
	}
	for _, bad := range []struct {
		theta0, theta1 float64
		degree         int
		eps            float64
	}{
		{1, 1, 30, 1e-10},  // no gap: γ = 1
		{1, -3, 30, 1e-10}, // edge below the lower end a = 0
		{1, 0.5, 0, 1e-10}, // no degree
		{1, 0.5, 30, 0},    // eps outside (0, 1)
		{1, 0.5, 30, 1},
	} {
		if n, err := PredictChebyshevMatVecs(bad.theta0, bad.theta1, 0, bad.degree, bad.eps); err == nil {
			t.Errorf("PredictChebyshevMatVecs(%g, %g, 0, %d, %g) = %d, want an error", bad.theta0, bad.theta1, bad.degree, bad.eps, n)
		}
	}
	// A lower edge at or above b = 0.75 leaves no interval.
	if n, err := PredictChebyshevMatVecs(1, 0.5, 0.75, 30, 1e-10); err == nil {
		t.Errorf("lower edge at b: %d matvecs, want an error", n)
	}
}

// gearLog records the solver kinds an adaptive solve runs, in order.
type gearLog struct{ kinds []string }

func (g *gearLog) Step(int, float64, float64)          {}
func (g *gearLog) Event(string, int, float64, float64) {}
func (g *gearLog) Method(kind string)                  { g.kinds = append(g.kinds, kind) }

// Above the threshold the Symmetric-form residual of a ν=11 single peak
// floors near 2e-14 while the Right-form residual reaches 4e-16, so at
// Tol 1e-15 the Chebyshev gear auto picks stalls, its iterate fails the
// Right-form check too, and the power gear it falls back to converges —
// without any shift-invert attempt. The warm start aliases the power
// iterate, as in a sweep chain: the Right-form check must leave it intact.
func TestAdaptiveChebyshevStallFallsBackToPower(t *testing.T) {
	const nu, tol = 11, 1e-15
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(2, -1.0/nu)
	q := mutation.MustUniform(nu, 1.1*pc)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	mu := ConservativeShift(q, l)
	start := opR.FitnessStart()

	// The gears on their own: Chebyshev from the Ritz vector of the
	// self-stopping probe, the Right-form check of its iterate, power from
	// the warm start. The probe's estimate meets 1e-15 after 22 steps, which
	// the Symmetric residual itself cannot reach.
	kw := NewKrylovWork(1 << nu)
	p, err := ritzGap(opS, 24, nil, nil, tol, kw)
	if err != nil {
		t.Fatal(err)
	}
	if p.built != 22 || !(p.residual <= tol) {
		t.Fatalf("probe built %d steps to estimate %g; want a stop at 22 with tol %g met", p.built, p.residual, tol)
	}
	theta0, theta1 := p.theta0, p.theta1
	ritz := make([]float64, 1<<nu)
	kw.ritzVector(ritz, p.y)
	cheb, err := ChebyshevIteration(opS, ChebyshevOptions{
		Tol: tol, LowerEdge: ConservativeShift(opS.Q, opS.F), UpperEdge: chebyshevEdge(theta0, theta1),
		Start: ritz, startRitz: &p,
	})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("Chebyshev gear on its own returned %v, want ErrStagnated", err)
	}
	x, w := make([]float64, 1<<nu), make([]float64, 1<<nu)
	if err := rightForm(x, opS, cheb.Vector); err != nil {
		t.Fatal(err)
	}
	opR.Apply(w, x)
	lam, nrm := shiftedDotNorm2(nil, x, w, mu)
	if r := shiftedResidualScale(nil, x, w, mu, lam, 1/nrm); r <= tol {
		t.Fatalf("the stalled iterate's Right-form residual %g meets tol %g; the check would accept it", r, tol)
	}
	want, err := PowerIteration(opR, PowerOptions{Tol: tol, Start: start, Shift: mu})
	if err != nil {
		t.Fatalf("power gear on its own: %v", err)
	}

	work := NewAdaptiveWork(1 << nu)
	warm, _ := work.Power.vectors(1 << nu)
	copy(warm, start)
	gears := &gearLog{}
	state := &MethodState{}
	got, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
		Method: SolveAuto, Tol: tol, PowerShift: mu, Start: warm, Work: work,
		Observer: gears, State: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != SolvePower || got.Escalations != 1 || got.Mu != 0 {
		t.Fatalf("auto finished on %v after %d escalations (µ = %g), want power after 1", got.Method, got.Escalations, got.Mu)
	}
	if len(gears.kinds) != 2 || gears.kinds[0] != SolveKindChebyshev || gears.kinds[1] != SolveKindPower {
		t.Fatalf("gear sequence %v, want [chebyshev power]", gears.kinds)
	}
	if got.Iterations != p.built+cheb.MatVecs+1+want.Iterations || got.ProbeMatVecs != p.built {
		t.Errorf("%d matvecs (probe %d), want probe %d + Chebyshev %d + Right-form check 1 + power %d",
			got.Iterations, got.ProbeMatVecs, p.built, cheb.MatVecs, want.Iterations)
	}
	if _, predicted := selectGear(theta0, theta1, mu, ConservativeShift(opS.Q, opS.F)); got.PredictedMatVecs != p.built+predicted {
		t.Errorf("predicted %d matvecs, want probe %d + Chebyshev %d", got.PredictedMatVecs, p.built, predicted)
	}
	if !sameBits(got.Lambda, want.Lambda) || state.LastMethod != SolvePower || state.PrevLambda != got.Lambda {
		t.Errorf("λ %v (state %+v), power gear alone %v", got.Lambda, *state, want.Lambda)
	}
	for i := range got.Vector {
		if !sameBits(got.Vector[i], want.Vector[i]) {
			t.Fatalf("x[%d] = %v, power gear alone %v", i, got.Vector[i], want.Vector[i])
		}
	}
}
