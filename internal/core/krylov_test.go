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

// The Lanczos recurrence reorthogonalizes only where Simon's ω-recurrence
// predicts that the basis is about to lose semi-orthogonality (krylov.go).
// These tests keep the every-step full-reorthogonalization loop as the
// reference and require the probe's Ritz values to match it to 1e-12
// relative, the measured basis orthogonality to stay within √ε, and the
// trigger to fire where orthogonality is really lost.

// fullReorthSteps is the recurrence before partial reorthogonalization:
// after the three-term update every step runs a modified Gram–Schmidt pass
// over the whole basis.
func fullReorthSteps(op Operator, basis [][]float64, alpha, beta, w []float64, k int) int {
	built := 0
	for j := 0; j < k; j++ {
		op.Apply(w, basis[j])
		alpha[j] = vec.Dot(basis[j], w)
		vec.AXPY(-alpha[j], basis[j], w)
		if j > 0 {
			vec.AXPY(-beta[j-1], basis[j-1], w)
		}
		for t := 0; t <= j; t++ {
			c := vec.Dot(basis[t], w)
			vec.AXPY(-c, basis[t], w)
		}
		built = j + 1
		if j+1 < k {
			b := vec.Norm2(w)
			if b < 1e-300 {
				break
			}
			beta[j] = b
			for i := range w {
				basis[j+1][i] = w[i] / b
			}
		}
	}
	return built
}

// probeStart writes RitzGap's default start, normalized, into q.
func probeStart(q []float64) {
	ritzStart(q)
	vec.Normalize2(q)
}

// referenceRitz returns the two leading Ritz values of a k-step
// full-reorthogonalization recurrence from start (nil: RitzGap's default).
func referenceRitz(t *testing.T, op Operator, k int, start []float64) (float64, float64) {
	t.Helper()
	n := op.Dim()
	basis, alpha, beta, w := (&KrylovWork{}).krylov(n, k)
	if start != nil {
		copy(basis[0], start)
	} else {
		probeStart(basis[0])
	}
	built := fullReorthSteps(op, basis, alpha, beta, w, k)
	vals, _, err := tridiagEigenpairs(alpha[:built], beta[:built-1])
	if err != nil {
		t.Fatal(err)
	}
	return vals[0], vals[1]
}

// orthLoss returns max |VᵀV − I| over the basis vectors.
func orthLoss(basis [][]float64) float64 {
	worst := 0.0
	for i := range basis {
		for j := 0; j <= i; j++ {
			d := vec.Dot(basis[i], basis[j])
			if i == j {
				d--
			}
			worst = math.Max(worst, math.Abs(d))
		}
	}
	return worst
}

// checkProbe runs a k-step probe on kw and requires its Ritz values to
// match the full-reorthogonalization reference to 1e-12 relative and its
// basis to be semi-orthogonal. It returns the reorthogonalized step count.
func checkProbe(t *testing.T, label string, op Operator, k int, kw *KrylovWork) int {
	t.Helper()
	p, err := ritzGap(op, k, nil, nil, 0, kw)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref0, ref1 := referenceRitz(t, op, k, nil)
	if math.Abs(p.theta0-ref0) > 1e-12*math.Abs(ref0) || math.Abs(p.theta1-ref1) > 1e-12*math.Abs(ref1) {
		t.Errorf("%s: θ = (%.17g, %.17g), full reorthogonalization (%.17g, %.17g)", label, p.theta0, p.theta1, ref0, ref1)
	}
	if loss := orthLoss(kw.basis[:p.built]); loss > semiOrth {
		t.Errorf("%s: max|VᵀV − I| = %.3g after %d steps (%d reorthogonalized), want ≤ √ε", label, loss, p.built, kw.reorths)
	}
	return kw.reorths
}

// Single peaks across the critical window and Eq. 13 random landscapes: the
// partially reorthogonalized probe reproduces the reference Ritz pair. At
// ν=10, σ=2 the Krylov space nearly closes around step 19 (β ≈ 1e-13) at
// several of these points, which runs the second Gram–Schmidt pass.
func TestRitzGapMatchesFullReorthogonalization(t *testing.T) {
	fracs := []float64{0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 0.94, 0.97, 1.0, 1.03, 1.08}
	for _, c := range []struct {
		nu    int
		sigma float64
		fracs []float64
	}{
		{8, 10, fracs}, {10, 2, fracs}, {12, 10, fracs},
		{17, 2, []float64{0.3, 0.97, 1.08}}, // the race-detector CI leg runs this
	} {
		l, err := landscape.NewSinglePeak(c.nu, c.sigma, 1)
		if err != nil {
			t.Fatal(err)
		}
		pc := 1 - math.Pow(c.sigma, -1/float64(c.nu))
		kw := NewKrylovWork(1 << c.nu)
		steps, reorths := 0, 0
		for _, frac := range c.fracs {
			opS, err := NewFmmpOperator(mutation.MustUniform(c.nu, frac*pc), l, Symmetric, nil)
			if err != nil {
				t.Fatal(err)
			}
			reorths += checkProbe(t, fmt.Sprintf("ν=%d σ=%g at %g·p_c", c.nu, c.sigma, frac), opS, 24, kw)
			steps += 23
		}
		t.Logf("ν=%d σ=%g single peak: %d of %d steps reorthogonalized", c.nu, c.sigma, reorths, steps)
	}
	r := rng.New(13)
	for _, nu := range []int{8, 12} {
		kw := NewKrylovWork(1 << nu)
		for _, p := range []float64{0.005, 0.02, 0.05} {
			l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			opS, err := NewFmmpOperator(mutation.MustUniform(nu, p), l, Symmetric, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkProbe(t, fmt.Sprintf("ν=%d random landscape at p=%g", nu, p), opS, 24, kw)
		}
	}
}

// One blocked pass is classical Gram–Schmidt: every coefficient comes from
// the w it was given, so it matches w − Σ (v_tᵀw)·v_t computed term by term
// to rounding, and a second pass leaves w orthogonal to the basis to ε. The
// chunked passes must also cover a dimension that is not a whole number of
// their 512-entry chunks.
func TestOrthogonalizeIsClassicalGramSchmidt(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{5, 512, 3*512 + 17} {
		const k = 9
		kw := NewKrylovWork(n)
		basis, _, _, _ := kw.krylov(n, k)
		basis = basis[:min(k, n-1)] // leave w a component outside the span
		for j := range basis {
			for i := range basis[j] {
				basis[j][i] = r.Float64() - 0.5
			}
			for i := 0; i < j; i++ {
				vec.AXPY(-vec.Dot(basis[i], basis[j]), basis[i], basis[j])
			}
			vec.Normalize2(basis[j])
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64() - 0.5
		}
		// Mostly along the basis, as when the Lanczos trigger fires.
		for j, v := range basis {
			vec.AXPY(float64(j+1), v, w)
		}
		want := vec.Clone(w)
		for _, v := range basis {
			vec.AXPY(-vec.Dot(v, w), v, want)
		}
		kw.orthogonalize(basis, w)
		if d := vec.DistInf(w, want); d > 1e-13 {
			t.Errorf("n=%d: one pass differs from classical Gram–Schmidt by %.3g", n, d)
		}
		kw.orthogonalize(basis, w)
		nw := vec.Norm2(w)
		for j, v := range basis {
			if c := math.Abs(vec.Dot(v, w)) / nw; c > 1e-15 {
				t.Errorf("n=%d: after two passes |v_%dᵀw|/‖w‖ = %.3g", n, j, c)
			}
		}
	}
}

// A restarted Lanczos cycle starts from the previous cycle's Ritz vector.
// Once that vector has converged, the first step's w is rounding noise
// almost parallel to it: one Gram–Schmidt pass leaves too much behind, and
// without the second pass the basis lost orthogonality to 1e-7 (ν=12) and
// 1e-4 (ν=15) by the third cycle.
func TestLanczosRestartCycleStaysSemiOrthogonal(t *testing.T) {
	const m = 24
	for _, c := range []struct {
		nu          int
		sigma, frac float64
	}{{12, 10, 0.9}, {15, 2, 0.9}} {
		l, err := landscape.NewSinglePeak(c.nu, c.sigma, 1)
		if err != nil {
			t.Fatal(err)
		}
		q := mutation.MustUniform(c.nu, c.frac*(1-math.Pow(c.sigma, -1/float64(c.nu))))
		opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
		restartCycles(t, opS, m, 3)
	}
}

// restartCycles runs cycles m-step Lanczos cycles, each started from the
// previous cycle's leading Ritz vector as Lanczos forms it, and checks every
// cycle's basis and leading Ritz value.
func restartCycles(t *testing.T, op Operator, m, cycles int) {
	t.Helper()
	n := op.Dim()
	kw := NewKrylovWork(n)
	basis, alpha, beta, _ := kw.krylov(n, m)
	probeStart(basis[0])
	start := make([]float64, n)
	for cycle := 0; cycle < cycles; cycle++ {
		copy(start, basis[0])
		k := kw.lanczosSteps(op, m, 0, nil)
		if k != m {
			t.Fatalf("n=%d cycle %d built %d of %d steps", n, cycle, k, m)
		}
		if loss := orthLoss(basis[:k]); loss > semiOrth {
			t.Errorf("n=%d cycle %d: max|VᵀV − I| = %.3g, want ≤ √ε", n, cycle, loss)
		}
		if cycle > 0 && kw.reorths == 0 {
			t.Errorf("n=%d cycle %d, restarted from a converged Ritz vector, never reorthogonalized", n, cycle)
		}
		vals, y, err := tridiagEigenpairs(alpha[:k], beta[:k-1])
		if err != nil {
			t.Fatal(err)
		}
		if ref0, _ := referenceRitz(t, op, m, start); math.Abs(vals[0]-ref0) > 1e-12*ref0 {
			t.Errorf("n=%d cycle %d: θ₀ = %.17g, full reorthogonalization %.17g", n, cycle, vals[0], ref0)
		}
		// The next cycle's start, as Lanczos forms it.
		vec.Fill(start, 0)
		for j := 0; j < k; j++ {
			vec.AXPY(y[j], basis[j], start)
		}
		vec.Normalize2(start)
		copy(basis[0], start)
	}
}

// geometric returns n diagonal entries top, top·r, top·r², …
func geometric(n int, top, r float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = top * math.Pow(r, float64(i))
	}
	return d
}

// The trigger fires when a Ritz value converges: a top pair clustered well
// above the bulk converges within the probe and orthogonality against it
// is lost; on an evenly spread spectrum no Ritz value converges in 24
// steps and the three-term recurrence alone stays semi-orthogonal.
func TestLanczosReorthogonalizationTrigger(t *testing.T) {
	const n = 4096
	clustered := make([]float64, n)
	clustered[0], clustered[1] = 10, 10-1e-3
	for i := 2; i < n; i++ {
		clustered[i] = float64(n-i) / n
	}
	spread := make([]float64, n)
	for i := range spread {
		spread[i] = 1 + float64(n-i)/n
	}
	for _, c := range []struct {
		name      string
		d         []float64
		wantFires bool
	}{
		{"clustered top pair", clustered, true},
		{"geometric decay", geometric(n, 1, 0.7), true},
		{"evenly spread", spread, false},
	} {
		reorths := checkProbe(t, c.name, diagOp{c.d}, 24, NewKrylovWork(n))
		if fires := reorths > 0; fires != c.wantFires {
			t.Errorf("%s: %d steps reorthogonalized, want firing %v", c.name, reorths, c.wantFires)
		}
	}
}

// A breakdown must report this probe's own β, not one a previous probe left
// in a reused KrylovWork.
func TestRitzGapBreakdownReusesWork(t *testing.T) {
	const n = 8
	kw := NewKrylovWork(n)
	if _, _, err := RitzGap(diagOp{geometric(n, 2, 0.5)}, 24, nil, kw); err != nil {
		t.Fatal(err)
	}
	if kw.beta[0] == 0 {
		t.Fatal("the first probe left no β behind; the test would prove nothing")
	}
	_, _, err := RitzGap(diagOp{geometric(n, 1, 1)}, 24, nil, kw)
	var ge *GapUnresolvedError
	if !errors.As(err, &ge) {
		t.Fatalf("identity probe returned %v, want a *GapUnresolvedError", err)
	}
	if ge.Resolution >= 1e-300 {
		t.Errorf("identity probe reports resolution %g, want its own breakdown norm (< 1e-300)", ge.Resolution)
	}
}

// countOp counts operator applications.
type countOp struct {
	Operator
	n int
}

func (c *countOp) Apply(dst, src []float64) { c.n++; c.Operator.Apply(dst, src) }

// At ν = 4 a 24-step probe clamps to the dimension 16, and the
// self-stopping probe at tol 1e-12 stops before that: the adaptive solve
// books the matvecs the probe ran, not the 24 it was allowed.
func TestAdaptiveBooksProbeMatVecs(t *testing.T) {
	const nu, tol = 4, 1e-12
	q, l, _ := criticalProblem(t, nu, 0.3)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	counted := &countOp{Operator: opS}
	full, err := ritzGap(counted, 24, nil, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.built != 1<<nu || counted.n != 1<<nu {
		t.Fatalf("probe built %d steps with %d matvecs, want %d", full.built, counted.n, 1<<nu)
	}
	counted.n = 0
	p, err := ritzGap(counted, 24, nil, nil, tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.built >= 1<<nu || counted.n != p.built {
		t.Fatalf("self-stopping probe built %d steps with %d matvecs, want fewer than %d", p.built, counted.n, 1<<nu)
	}
	mu := ConservativeShift(q, l)
	res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{Method: SolveAuto, Tol: tol, PowerShift: mu})
	if err != nil {
		t.Fatal(err)
	}
	gear, predicted := selectGear(p.theta0, p.theta1, mu, ConservativeShift(opS.Q, opS.F))
	if res.Method != SolvePower || gear != SolvePower {
		t.Fatalf("auto ran %v (selected %v), want power", res.Method, gear)
	}
	alone, err := PowerIteration(opR, PowerOptions{Tol: tol, Shift: mu})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != p.built+alone.Iterations || res.ProbeMatVecs != p.built {
		t.Errorf("%d matvecs (probe %d), want probe %d + power %d", res.Iterations, res.ProbeMatVecs, p.built, alone.Iterations)
	}
	if res.PredictedMatVecs != p.built+predicted {
		t.Errorf("predicted %d matvecs, want probe %d + power %d", res.PredictedMatVecs, p.built, predicted)
	}
}

func TestLanczosStepsZeroAllocs(t *testing.T) {
	q, l, _ := criticalProblem(t, 10, 0.95)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	kw := NewKrylovWork(opS.Dim())
	basis, _, _, _ := kw.krylov(opS.Dim(), 24)
	// The second run asks the self-stopping test at every step: a stop
	// tolerance of 1e-300 is never met.
	allocs := testing.AllocsPerRun(5, func() {
		probeStart(basis[0])
		kw.lanczosSteps(opS, 24, 0, nil)
		probeStart(basis[0])
		if built := kw.lanczosSteps(opS, 24, 1e-300, nil); built != 24 {
			t.Fatalf("the recurrence stopped after %d steps at tolerance 1e-300", built)
		}
	})
	if allocs != 0 {
		t.Fatalf("lanczosSteps on a warm KrylovWork allocates %v per run", allocs)
	}
	if kw.reorths == 0 {
		t.Fatal("the near-critical probe never reorthogonalized; the alloc check missed that path")
	}
}
