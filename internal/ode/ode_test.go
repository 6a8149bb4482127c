package ode

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

func buildSystem(t *testing.T, nu int, p float64, l landscape.Landscape) *System {
	t.Helper()
	q := mutation.MustUniform(nu, p)
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(op, l)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randLandscape(t *testing.T, nu int, seed uint64) landscape.Landscape {
	t.Helper()
	l, err := landscape.NewRandom(nu, 5, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRHSConservesTotalConcentration(t *testing.T) {
	// On the simplex Σxᵢ = 1 the field satisfies Σẋᵢ = Φ − Φ·Σxᵢ = 0.
	const nu = 8
	l := randLandscape(t, nu, 1)
	s := buildSystem(t, nu, 0.01, l)
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, s.Dim())
		for i := range x {
			x[i] = r.Float64()
		}
		vec.Normalize1(x)
		dx := make([]float64, s.Dim())
		s.RHS(dx, x)
		if sum := vec.SumKahan(dx); math.Abs(sum) > 1e-12 {
			t.Fatalf("Σẋ = %g on the simplex", sum)
		}
	}
}

func TestEigenvectorIsFixedPoint(t *testing.T) {
	// At the quasispecies x*, W·x* = λx* and Φ(x*) = λ, so ẋ = 0.
	const nu = 8
	l := randLandscape(t, nu, 3)
	s := buildSystem(t, nu, 0.01, l)
	q := mutation.MustUniform(nu, 0.01)
	op, _ := core.NewFmmpOperator(q, l, core.Right, nil)
	res, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-13, Start: core.FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Clone(res.Vector)
	if err := core.Concentrations(x); err != nil {
		t.Fatal(err)
	}
	// Φ(x*) = λ.
	if math.Abs(s.Phi(x)-res.Lambda) > 1e-9 {
		t.Errorf("Φ(x*) = %g, λ = %g", s.Phi(x), res.Lambda)
	}
	dx := make([]float64, s.Dim())
	s.RHS(dx, x)
	if n := vec.Norm2(dx); n > 1e-9 {
		t.Errorf("‖ẋ‖ = %g at the quasispecies fixed point", n)
	}
}

func TestTrajectoryConvergesToQuasispecies(t *testing.T) {
	// Integrating Eq. 1 from x₀ = e₀ must reach the Perron eigenvector of
	// W — the dynamical and spectral definitions agree.
	const nu = 7
	const p = 0.02
	l := randLandscape(t, nu, 4)
	s := buildSystem(t, nu, p, l)

	x := MasterStart(s.Dim())
	_, steps, err := s.SteadyState(x, SteadyStateOptions{Tol: 1e-11, Dt: 0.02})
	if err != nil {
		t.Fatal(err)
	}

	q := mutation.MustUniform(nu, p)
	op, _ := core.NewFmmpOperator(q, l, core.Right, nil)
	res, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-13, Start: core.FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	want := vec.Clone(res.Vector)
	if err := core.Concentrations(want); err != nil {
		t.Fatal(err)
	}
	if d := vec.DistInf(x, want); d > 1e-7 {
		t.Errorf("steady state deviates from eigenvector by %g (after %d steps)", d, steps)
	}
	if math.Abs(s.Phi(x)-res.Lambda) > 1e-7 {
		t.Errorf("Φ at steady state = %g, λ = %g", s.Phi(x), res.Lambda)
	}
}

func TestBernoulliLinearization(t *testing.T) {
	// x(t) from the nonlinear flow equals z(t)/‖z(t)‖₁ from ż = W·z when
	// both start at the same simplex point.
	const nu = 6
	l := randLandscape(t, nu, 5)
	s := buildSystem(t, nu, 0.03, l)
	n := s.Dim()

	x := MasterStart(n)
	if _, err := s.IntegrateRK4(x, 0, 0.001, 2000, RK4Options{}); err != nil {
		t.Fatal(err)
	}

	// Linear flow with the same RK4 scheme.
	z := MasterStart(n)
	k1, k2, k3, k4, tmp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	dt := 0.001
	for step := 0; step < 2000; step++ {
		s.op.Apply(k1, z)
		for i := range tmp {
			tmp[i] = z[i] + dt/2*k1[i]
		}
		s.op.Apply(k2, tmp)
		for i := range tmp {
			tmp[i] = z[i] + dt/2*k2[i]
		}
		s.op.Apply(k3, tmp)
		for i := range tmp {
			tmp[i] = z[i] + dt*k3[i]
		}
		s.op.Apply(k4, tmp)
		for i := range z {
			z[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
	}
	vec.Normalize1(z)
	if d := vec.DistInf(x, z); d > 1e-8 {
		t.Errorf("nonlinear and linearized trajectories differ by %g", d)
	}
}

func TestRK4OrderOfAccuracy(t *testing.T) {
	// Halving dt must shrink the error by ≈2⁴ (global order 4).
	const nu = 5
	l := randLandscape(t, nu, 6)
	s := buildSystem(t, nu, 0.05, l)
	const T = 1.0

	solveWith := func(dt float64) []float64 {
		x := MasterStart(s.Dim())
		steps := int(math.Round(T / dt))
		if _, err := s.IntegrateRK4(x, 0, dt, steps, RK4Options{}); err != nil {
			t.Fatal(err)
		}
		return x
	}
	ref := solveWith(1.0 / 4096)
	errCoarse := vec.DistInf(solveWith(1.0/32), ref)
	errFine := vec.DistInf(solveWith(1.0/64), ref)
	ratio := errCoarse / errFine
	if ratio < 10 || ratio > 26 {
		t.Errorf("error ratio %g for dt halving; want ≈ 16 (order 4)", ratio)
	}
}

func TestAdaptiveMatchesRK4(t *testing.T) {
	const nu = 6
	l := randLandscape(t, nu, 7)
	s := buildSystem(t, nu, 0.02, l)
	const T = 2.0

	xa := MasterStart(s.Dim())
	steps, err := s.IntegrateAdaptive(xa, 0, T, AdaptiveOptions{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no steps accepted")
	}

	xr := MasterStart(s.Dim())
	if _, err := s.IntegrateRK4(xr, 0, 1e-3, 2000, RK4Options{}); err != nil {
		t.Fatal(err)
	}
	if d := vec.DistInf(xa, xr); d > 1e-7 {
		t.Errorf("adaptive and RK4 solutions differ by %g (adaptive used %d steps)", d, steps)
	}
}

func TestAdaptiveUsesFewStepsOnSmoothProblem(t *testing.T) {
	const nu = 6
	l := randLandscape(t, nu, 8)
	s := buildSystem(t, nu, 0.02, l)
	x := MasterStart(s.Dim())
	steps, err := s.IntegrateAdaptive(x, 0, 5, AdaptiveOptions{Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if steps > 500 {
		t.Errorf("adaptive integrator used %d steps on a smooth problem", steps)
	}
}

func TestSimplexPreservation(t *testing.T) {
	const nu = 7
	l := randLandscape(t, nu, 9)
	s := buildSystem(t, nu, 0.01, l)
	x := MasterStart(s.Dim())
	sumDrift := 0.0
	_, err := s.IntegrateRK4(x, 0, 0.01, 500, RK4Options{
		monitor: func(step int, tt float64, state []float64) bool {
			d := math.Abs(vec.SumKahan(state) - 1)
			if d > sumDrift {
				sumDrift = d
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sumDrift > 1e-9 {
		t.Errorf("simplex drift %g without renormalization", sumDrift)
	}
	for i, v := range x {
		if v < -1e-12 {
			t.Errorf("concentration %d went negative: %g", i, v)
			break
		}
	}
}

func TestMonitorEarlyStop(t *testing.T) {
	const nu = 5
	l := randLandscape(t, nu, 10)
	s := buildSystem(t, nu, 0.02, l)
	x := MasterStart(s.Dim())
	calls := 0
	tEnd, err := s.IntegrateRK4(x, 0, 0.01, 1000, RK4Options{
		monitor: func(step int, tt float64, state []float64) bool {
			calls++
			return step < 5
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || math.Abs(tEnd-0.05) > 1e-12 {
		t.Errorf("early stop: calls=%d tEnd=%g", calls, tEnd)
	}
}

func TestIntegrationInputValidation(t *testing.T) {
	const nu = 4
	l := randLandscape(t, nu, 11)
	s := buildSystem(t, nu, 0.02, l)
	if _, err := s.IntegrateRK4(make([]float64, 3), 0, 0.1, 10, RK4Options{}); err == nil {
		t.Error("wrong state length must error")
	}
	x := MasterStart(s.Dim())
	if _, err := s.IntegrateRK4(x, 0, -0.1, 10, RK4Options{}); err == nil {
		t.Error("negative dt must error")
	}
	if _, err := s.IntegrateAdaptive(x, 1, 0, AdaptiveOptions{}); err == nil {
		t.Error("t1 < t0 must error")
	}
	if _, err := s.IntegrateAdaptive(make([]float64, 3), 0, 1, AdaptiveOptions{}); err == nil {
		t.Error("wrong adaptive state length must error")
	}
}

func TestRK4BlowupDetection(t *testing.T) {
	const nu = 4
	l := randLandscape(t, nu, 12)
	s := buildSystem(t, nu, 0.02, l)
	x := MasterStart(s.Dim())
	// dt = 1e6 with λ ~ 5 explodes immediately.
	if _, err := s.IntegrateRK4(x, 0, 1e6, 100, RK4Options{}); err == nil {
		t.Error("divergent integration must be detected")
	}
}

func TestNewSystemValidation(t *testing.T) {
	q := mutation.MustUniform(4, 0.1)
	l4, _ := landscape.NewUniform(4, 1)
	l5, _ := landscape.NewUniform(5, 1)
	op, _ := core.NewFmmpOperator(q, l4, core.Right, nil)
	if _, err := NewSystem(op, l5); err == nil {
		t.Error("dimension mismatch must be rejected")
	}
}

func TestUniformFitnessFlowsToUniform(t *testing.T) {
	const nu = 6
	l, _ := landscape.NewUniform(nu, 2)
	s := buildSystem(t, nu, 0.05, l)
	x := MasterStart(s.Dim())
	if _, _, err := s.SteadyState(x, SteadyStateOptions{Tol: 1e-11, Dt: 0.05}); err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(s.Dim())
	for i, v := range x {
		if math.Abs(v-want) > 1e-8 {
			t.Fatalf("x[%d] = %g, want uniform %g", i, v, want)
		}
	}
}
