package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

func solveDenseReference(t *testing.T, q *mutation.Process, l landscape.Landscape) (float64, []float64) {
	t.Helper()
	dw, err := NewDenseW(q, l, Right)
	if err != nil {
		t.Fatal(err)
	}
	lam, x, _, err := dense.Dominant(dw.M, &dense.DominantOptions{Tol: 1e-13, MaxIter: 2000000})
	if err != nil {
		t.Fatal(err)
	}
	return lam, x
}

func TestPowerIterationMatchesDenseReference(t *testing.T) {
	r := rng.New(1)
	for _, nu := range []int{3, 6, 9} {
		q := mutation.MustUniform(nu, 0.01)
		l := randLandscape(r, nu)
		wantLam, wantX := solveDenseReference(t, q, l)

		op, err := NewFmmpOperator(q, l, Right, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
		if err != nil {
			t.Fatalf("ν=%d: %v", nu, err)
		}
		if !res.Converged || res.Residual > 1e-12 {
			t.Errorf("ν=%d: not converged (residual %g)", nu, res.Residual)
		}
		if math.Abs(res.Lambda-wantLam) > 1e-9 {
			t.Errorf("ν=%d: λ = %.15g, want %.15g", nu, res.Lambda, wantLam)
		}
		if d := vec.DistInf(res.Vector, wantX); d > 1e-7 {
			t.Errorf("ν=%d: eigenvector deviates by %g", nu, d)
		}
	}
}

func TestPowerIterationDeviceMatchesSerial(t *testing.T) {
	r := rng.New(2)
	const nu = 10
	q := mutation.MustUniform(nu, 0.01)
	l := randLandscape(r, nu)
	dev := device.New(4, device.WithGrain(64))

	serialOp, _ := NewFmmpOperator(q, l, Right, nil)
	serialRes, err := PowerIteration(serialOp, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	devOp, _ := NewFmmpOperator(q, l, Right, dev)
	devRes, err := PowerIteration(devOp, PowerOptions{Tol: 1e-12, Start: FitnessStart(l), Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	comparePower(t, "4 workers", devRes, serialRes, nil, nil, &callLog{}, &callLog{})
}

func TestPowerIterationPerronProperties(t *testing.T) {
	// The computed eigenvector must be (numerically) non-negative and the
	// eigenvalue within the paper's bounds (1−2p)^ν·f_min ≤ λ ≤ f_max.
	r := rng.New(3)
	const nu = 8
	const p = 0.02
	q := mutation.MustUniform(nu, p)
	l := randLandscape(r, nu)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Vector {
		if v < -1e-10 {
			t.Errorf("Perron vector entry %d = %g is significantly negative", i, v)
			break
		}
	}
	lo := ConservativeShift(q, l)
	hi := UpperBoundLambda(l)
	if res.Lambda < lo || res.Lambda > hi {
		t.Errorf("λ = %g outside [%g, %g]", res.Lambda, lo, hi)
	}
}

func TestShiftReducesIterations(t *testing.T) {
	// Section 3: the conservative shift µ = (1−2p)^ν·f_min reduces the
	// iteration count by "about ten percent and more" on random landscapes.
	r := rng.New(4)
	totalPlain, totalShifted := 0, 0
	for trial := 0; trial < 5; trial++ {
		const nu = 10
		const p = 0.01
		q := mutation.MustUniform(nu, p)
		l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		op, _ := NewFmmpOperator(q, l, Right, nil)
		plain, err := PowerIteration(op, PowerOptions{Tol: 1e-10, Start: FitnessStart(l)})
		if err != nil {
			t.Fatal(err)
		}
		mu := ConservativeShift(q, l)
		if mu <= 0 {
			t.Fatal("conservative shift must be positive for uniform processes")
		}
		shifted, err := PowerIteration(op, PowerOptions{Tol: 1e-10, Start: FitnessStart(l), Shift: mu})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plain.Lambda-shifted.Lambda) > 1e-8 {
			t.Fatalf("shifted iteration converged to a different eigenvalue: %g vs %g",
				shifted.Lambda, plain.Lambda)
		}
		totalPlain += plain.Iterations
		totalShifted += shifted.Iterations
	}
	if totalShifted >= totalPlain {
		t.Errorf("shift did not reduce iterations: %d (shifted) vs %d (plain)", totalShifted, totalPlain)
	}
	t.Logf("iterations: plain %d, shifted %d (%.1f%% reduction)",
		totalPlain, totalShifted, 100*(1-float64(totalShifted)/float64(totalPlain)))
}

func TestConservativeShiftFormula(t *testing.T) {
	q := mutation.MustUniform(10, 0.01)
	l, _ := landscape.NewSinglePeak(10, 2, 1)
	want := math.Pow(0.98, 10) * 1.0
	if got := ConservativeShift(q, l); math.Abs(got-want) > 1e-15 {
		t.Errorf("shift = %g, want %g", got, want)
	}
	// A per-site process gets Π_k(A_k+D_k−1)·f_min.
	ps, err := mutation.NewPerSite([]mutation.Factor2{
		{A: 0.9, B: 0.2, C: 0.1, D: 0.8}, {A: 0.8, B: 0.1, C: 0.2, D: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := landscape.NewUniform(2, 1)
	if got := ConservativeShift(ps, l2); math.Abs(got-0.7*0.7) > 1e-15 {
		t.Errorf("per-site shift = %g, want %g", got, 0.7*0.7)
	}
	// A one-way factor (B = 0) and a grouped factor get no shift.
	oneWay, err := mutation.NewPerSite([]mutation.Factor2{
		{A: 0.9, B: 0.2, C: 0.1, D: 0.8}, {A: 1, B: 0.1, C: 0, D: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := mutation.NewGrouped([]*dense.Matrix{dense.FromRows([][]float64{
		{0.7, 0.1, 0.1, 0.1}, {0.1, 0.7, 0.1, 0.1}, {0.1, 0.1, 0.7, 0.1}, {0.1, 0.1, 0.1, 0.7},
	})})
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*mutation.Process{"one-way": oneWay, "grouped": grouped} {
		if got := ConservativeShift(q, l2); got != 0 {
			t.Errorf("%s shift = %g, want 0", name, got)
		}
	}
}

func TestShiftIsBelowSmallestEigenvalue(t *testing.T) {
	// λ_min(W) ≥ (1−2p)^ν·f_min: verify on small dense symmetric forms.
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		nu := 2 + int(r.Uint64n(5))
		p := 0.001 + 0.4*r.Float64()
		q := mutation.MustUniform(nu, p)
		l := randLandscape(r, nu)
		dw, err := NewDenseW(q, l, Symmetric)
		if err != nil {
			t.Fatal(err)
		}
		vals, _, err := dense.JacobiEigen(dw.M, 1e-14)
		if err != nil {
			t.Fatal(err)
		}
		mu := ConservativeShift(q, l)
		lamMin := vals[len(vals)-1]
		if lamMin < mu*(1-1e-10) {
			t.Errorf("λ_min = %g < µ = %g (ν=%d, p=%g)", lamMin, mu, nu, p)
		}
	}

	// Per-site processes, asymmetric (Stay0 ≠ Stay1) and symmetric, ν ≤ 8:
	// with D = ⊗_k diag(1, √(C_k/B_k)), S = D⁻¹·Q·D must be symmetric, and
	// λ_min of F^½·S·F^½, which W = Q·F is similar to, must be ≥ µ. On a
	// flat landscape (W = c·Q) µ is λ_min itself.
	for trial := 0; trial < 14; trial++ {
		nu, asymmetric, flat := 2+trial%7, trial%2 == 0, trial%3 == 0
		factors := make([]mutation.Factor2, nu)
		for k := range factors {
			stay0, stay1 := 0.55+0.45*r.Float64(), 0.0
			if stay1 = stay0; asymmetric {
				stay1 = 0.55 + 0.45*r.Float64()
			}
			factors[k] = mutation.Factor2{A: stay0, B: 1 - stay1, C: 1 - stay0, D: stay1}
		}
		q, err := mutation.NewPerSite(factors)
		if err != nil {
			t.Fatal(err)
		}
		l := randLandscape(r, nu)
		if flat {
			l, _ = landscape.NewUniform(nu, 1+r.Float64())
		}
		label := fmt.Sprintf("ν=%d asymmetric=%v flat=%v", nu, asymmetric, flat)
		mu := ConservativeShift(q, l)
		if !(mu > 0) {
			t.Fatalf("%s: µ = %g, want a positive shift", label, mu)
		}
		n := q.Dim()
		d, invD, sqrtF := make([]float64, n), make([]float64, n), landscape.Materialize(l)
		for i := range d {
			d[i] = 1
			for k, f := range factors {
				if i>>uint(k)&1 == 1 {
					d[i] *= math.Sqrt(f.C / f.B)
				}
			}
			invD[i], sqrtF[i] = 1/d[i], math.Sqrt(sqrtF[i])
		}
		m := q.Dense()
		m.ScaleRows(invD)
		m.ScaleColumns(d)
		if !m.IsSymmetric(1e-12) {
			t.Fatalf("%s: D⁻¹·Q·D is not symmetric", label)
		}
		m.ScaleRows(sqrtF)
		m.ScaleColumns(sqrtF)
		vals, _, err := dense.JacobiEigen(m, 1e-14)
		if err != nil {
			t.Fatal(err)
		}
		lamMin := vals[len(vals)-1]
		if lamMin < mu*(1-1e-10) {
			t.Errorf("%s: λ_min = %g < µ = %g", label, lamMin, mu)
		}
		if flat && math.Abs(lamMin-mu) > 1e-10*mu {
			t.Errorf("%s: λ_min = %.17g, want µ = %.17g on a flat landscape", label, lamMin, mu)
		}
	}
}

// TestAsymmetricPowerSolveBitIdenticalAcrossTiers: a shifted power solve on
// an asymmetric per-site operator (the general butterfly kind, on the
// first-pass, tile pair, cross quad and lone cross stage bodies at ν = 13
// and 14) gives the same λ, vector and iteration count bit for bit at every
// kernel tier the host has, serially and on 1- and 2-worker devices; the
// serial solve also matches both devices.
func TestAsymmetricPowerSolveBitIdenticalAcrossTiers(t *testing.T) {
	was := vec.SetTier(vec.TierAVX512)
	defer vec.SetTier(was)
	r := rng.New(4242)
	for _, nu := range []int{13, 14} {
		factors := make([]mutation.Factor2, nu)
		for k := range factors {
			stay0, stay1 := 0.98+0.015*r.Float64(), 0.97+0.025*r.Float64()
			factors[k] = mutation.Factor2{A: stay0, B: 1 - stay1, C: 1 - stay0, D: stay1}
		}
		q, err := mutation.NewPerSite(factors)
		if err != nil {
			t.Fatal(err)
		}
		l := randLandscape(r, nu)
		devs := []struct {
			name string
			dev  *device.Device
		}{{"serial", nil}, {"1-worker", device.New(1)}, {"2-workers", device.New(2, device.WithGrain(64))}}
		results := make(map[string]PowerResult)
		for _, tier := range vec.Tiers() {
			vec.SetTier(tier)
			for _, d := range devs {
				op, err := NewFmmpOperator(q, l, Right, d.dev)
				if err != nil {
					t.Fatal(err)
				}
				res, err := PowerIteration(op, PowerOptions{
					Tol: 1e-12, Start: op.FitnessStart(), Shift: ConservativeShift(q, l), Dev: d.dev,
				})
				if err != nil {
					t.Fatalf("ν=%d %s tier=%v: %v", nu, d.name, tier, err)
				}
				res.Vector = vec.Clone(res.Vector)
				results[fmt.Sprint(d.name, tier)] = res
			}
		}
		for _, d := range devs {
			want := results[fmt.Sprint(d.name, vec.TierGo)]
			for _, tier := range vec.Tiers() {
				comparePower(t, fmt.Sprintf("ν=%d %s tier=%v", nu, d.name, tier),
					results[fmt.Sprint(d.name, tier)], want, nil, nil, &callLog{}, &callLog{})
			}
		}
		for _, d := range devs[1:] {
			comparePower(t, fmt.Sprintf("ν=%d serial vs %s", nu, d.name),
				results[fmt.Sprint("serial", vec.TierGo)], results[fmt.Sprint(d.name, vec.TierGo)], nil, nil, &callLog{}, &callLog{})
		}
	}
}

func TestUniformLimits(t *testing.T) {
	// Equal fitness ⇒ W is a positive multiple of a bistochastic matrix
	// and the quasispecies is the uniform distribution, for every p.
	for _, p := range []float64{0.01, 0.25, 0.5} {
		const nu = 6
		q := mutation.MustUniform(nu, p)
		l, _ := landscape.NewUniform(nu, 3)
		op, _ := NewFmmpOperator(q, l, Right, nil)
		res, err := PowerIteration(op, PowerOptions{Tol: 1e-13})
		if err != nil {
			t.Fatalf("p=%g: %v", p, err)
		}
		// λ must equal the common fitness value.
		if math.Abs(res.Lambda-3) > 1e-10 {
			t.Errorf("p=%g: λ = %g, want 3", p, res.Lambda)
		}
		want := 1 / math.Sqrt(float64(q.Dim()))
		for i, v := range res.Vector {
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("p=%g: x[%d] = %g, want uniform %g", p, i, v, want)
			}
		}
	}

	// p = ½ ⇒ random replication: uniform distribution for any landscape.
	const nu = 6
	q := mutation.MustUniform(nu, 0.5)
	l := randLandscape(rng.New(6), nu)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := PowerIteration(op, PowerOptions{Tol: 1e-13, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Clone(res.Vector)
	if err := Concentrations(x); err != nil {
		t.Fatal(err)
	}
	wantC := 1 / float64(q.Dim())
	for i, v := range x {
		if math.Abs(v-wantC) > 1e-9 {
			t.Fatalf("p=1/2: concentration[%d] = %g, want uniform %g", i, v, wantC)
		}
	}
}

func TestPowerIterationMonitorAbort(t *testing.T) {
	q := mutation.MustUniform(8, 0.01)
	l := randLandscape(rng.New(7), 8)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	calls := 0
	_, err := PowerIteration(op, PowerOptions{
		Tol:   1e-15,
		Start: FitnessStart(l),
		Monitor: func(iter int, lambda, residual float64) bool {
			calls++
			return calls < 3
		},
	})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence from monitor abort", err)
	}
	if calls != 3 {
		t.Errorf("monitor called %d times, want 3", calls)
	}
}

func TestPowerIterationMaxIterExceeded(t *testing.T) {
	q := mutation.MustUniform(8, 0.01)
	l := randLandscape(rng.New(8), 8)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := PowerIteration(op, PowerOptions{Tol: 1e-16, MaxIter: 3, Start: FitnessStart(l)})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
	if res.Iterations != 3 || res.Converged {
		t.Errorf("partial result: iters=%d converged=%v", res.Iterations, res.Converged)
	}
	if res.Vector == nil || res.Lambda == 0 {
		t.Error("partial result must still carry the current estimate")
	}
}

func TestPowerIterationBadStart(t *testing.T) {
	q := mutation.MustUniform(4, 0.01)
	l, _ := landscape.NewUniform(4, 1)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	if _, err := PowerIteration(op, PowerOptions{Start: make([]float64, 5)}); err == nil {
		t.Error("wrong start length must error")
	}
	if _, err := PowerIteration(op, PowerOptions{Start: make([]float64, 16)}); err == nil {
		t.Error("zero start vector must error")
	}
}

// TestPowerIterationChecksEveryIteration: the residual is checked at every
// iteration, so the Monitor sees each one, in order, and convergence is
// observed at the first iteration that meets the tolerance.
func TestPowerIterationChecksEveryIteration(t *testing.T) {
	q := mutation.MustUniform(8, 0.01)
	l := randLandscape(rng.New(9), 8)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	var iters []int
	var last float64
	res, err := PowerIteration(op, PowerOptions{
		Tol: 1e-11, Start: FitnessStart(l),
		Monitor: func(iter int, _, r float64) bool { iters = append(iters, iter); last = r; return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Iterations {
		t.Fatalf("monitor called %d times for %d iterations", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("check %d reported iteration %d", i, it)
		}
	}
	if last != res.Residual || !(last <= 1e-11) {
		t.Errorf("last checked residual %g, result %g", last, res.Residual)
	}
}

func TestFitnessStart(t *testing.T) {
	l, _ := landscape.NewSinglePeak(4, 2, 1)
	s := FitnessStart(l)
	if math.Abs(vec.Sum(s)-1) > 1e-14 {
		t.Error("start vector must have unit 1-norm")
	}
	if s[0] <= s[1] {
		t.Error("start vector must reflect the landscape's shape")
	}
}

func TestConcentrations(t *testing.T) {
	x := []float64{0.3, -1e-14, 0.7, 0.5}
	if err := Concentrations(x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(vec.Sum(x)-1) > 1e-14 {
		t.Error("concentrations must sum to 1")
	}
	if x[1] != 0 {
		t.Error("tiny negatives must clamp to zero")
	}
	bad := []float64{1, -0.5}
	if err := Concentrations(bad); err == nil {
		t.Error("significant negatives must error")
	}
	if err := Concentrations([]float64{0, 0}); err == nil {
		t.Error("zero vector must error")
	}
}

func TestClassConcentrations(t *testing.T) {
	const nu = 3
	x := make([]float64, 8)
	for i := range x {
		x[i] = 0.125
	}
	gamma, err := ClassConcentrations(nu, x)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform distribution: [Γk] = C(ν,k)/N.
	want := []float64{0.125, 0.375, 0.375, 0.125}
	for k := range want {
		if math.Abs(gamma[k]-want[k]) > 1e-14 {
			t.Errorf("[Γ%d] = %g, want %g", k, gamma[k], want[k])
		}
	}
	if _, err := ClassConcentrations(4, x); err == nil {
		t.Error("dimension mismatch must error")
	}
}

func TestPowerIterationNonUniformProcess(t *testing.T) {
	// The general per-site model solves through the same pipeline
	// (Section 2.2) — verify against the dense reference.
	r := rng.New(12)
	const nu = 6
	factors := make([]mutation.Factor2, nu)
	for i := range factors {
		c0 := 0.02 + 0.1*r.Float64()
		c1 := 0.02 + 0.1*r.Float64()
		factors[i] = mutation.Factor2{A: 1 - c0, B: c1, C: c0, D: 1 - c1}
	}
	q, err := mutation.NewPerSite(factors)
	if err != nil {
		t.Fatal(err)
	}
	l := randLandscape(r, nu)
	dw, err := NewDenseW(q, l, Right)
	if err != nil {
		t.Fatal(err)
	}
	wantLam, wantX, _, err := dense.Dominant(dw.M, &dense.DominantOptions{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda-wantLam) > 1e-9 {
		t.Errorf("λ = %g, want %g", res.Lambda, wantLam)
	}
	if d := vec.DistInf(res.Vector, wantX); d > 1e-7 {
		t.Errorf("eigenvector deviates by %g", d)
	}
}

func TestPowerWorkReuseAndWarmStartAlias(t *testing.T) {
	const nu = 7
	q := mutation.MustUniform(nu, 0.012)
	l := randLandscape(rng.New(8), nu)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)

	cold, err := PowerIteration(op, PowerOptions{Tol: 1e-11, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}

	work := NewPowerWork(op.Dim())
	first, err := PowerIteration(op, PowerOptions{Tol: 1e-11, Start: FitnessStart(l), Work: work})
	if err != nil {
		t.Fatal(err)
	}
	if &first.Vector[0] != &work.x[0] {
		t.Fatal("result vector must alias the scratch iterate")
	}
	for i := range cold.Vector {
		if first.Vector[i] != cold.Vector[i] {
			t.Fatal("scratch-backed solve deviates from allocating solve")
		}
	}

	// Warm start where Start aliases the scratch iterate itself — the
	// continuation pattern of the sweep engine.
	warm, err := PowerIteration(op, PowerOptions{Tol: 1e-11, Start: first.Vector, Work: work})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Lambda-cold.Lambda) > 1e-10 {
		t.Errorf("warm λ = %.15g, cold λ = %.15g", warm.Lambda, cold.Lambda)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm restart took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
}
