// Package ode implements Eigen's replication–mutation ODE system (Eq. 1),
//
//	dxᵢ/dt = Σⱼ fⱼ·Qᵢⱼ·xⱼ − xᵢ·Φ(t),   Φ(t) = Σⱼ fⱼ·xⱼ,   Σⱼ xⱼ = 1,
//
// the dynamical model whose stationary distribution is the quasispecies.
// The right-hand side is W·x − (fᵀx)·x with W = Q·F applied through any of
// the fast implicit operators, so time integration costs Θ(N·log₂N) per
// stage evaluation instead of Θ(N²).
//
// The system is a Bernoulli ODE: the substitution z(t) = x(t)·exp(∫Φ dτ)
// linearizes it to ż = W·z, and x(t) = z(t)/‖z(t)‖₁. Both forms are
// implemented; their agreement is a strong end-to-end correctness check,
// and the convergence of x(t) to the dominant eigenvector of W ties the
// dynamical and spectral views of the model together.
package ode

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/vec"
)

// System is the replicator–mutator vector field.
type System struct {
	op      core.Operator // applies W = Q·F (Right formulation)
	fitness []float64     // diag(F) for Φ(t) = fᵀx
	scratch []float64
}

// NewSystem builds the ODE system from a Right-formulation operator and
// its landscape.
func NewSystem(op core.Operator, l landscape.Landscape) (*System, error) {
	if op.Dim() != l.Dim() {
		return nil, fmt.Errorf("ode: operator dimension %d does not match landscape dimension %d",
			op.Dim(), l.Dim())
	}
	return &System{
		op:      op,
		fitness: landscape.Materialize(l),
		scratch: make([]float64, op.Dim()),
	}, nil
}

// Dim returns the state dimension N.
func (s *System) Dim() int { return s.op.Dim() }

// Phi returns the mean population fitness Φ(x) = fᵀx — the dilution flux
// that keeps the total concentration constant.
func (s *System) Phi(x []float64) float64 { return vec.Dot(s.fitness, x) }

// RHS evaluates dst ← W·x − Φ(x)·x. dst must not alias x.
func (s *System) RHS(dst, x []float64) {
	if len(dst) != s.Dim() || len(x) != s.Dim() {
		panic("ode: RHS dimension mismatch")
	}
	if &dst[0] == &x[0] {
		panic("ode: RHS dst must not alias x")
	}
	s.op.Apply(dst, x)
	phi := s.Phi(x)
	vec.AXPY(-phi, x, dst)
}

// MasterStart returns the model's canonical initial condition x₀ = 1
// (only the master sequence present), normalized on the simplex.
func MasterStart(n int) []float64 {
	x := make([]float64, n)
	x[0] = 1
	return x
}

// ---------------------------------------------------------------------------
// Fixed-step RK4

// RK4Options configures fixed-step integration.
type RK4Options struct {
	// Renormalize projects the state back onto the simplex (Σx = 1) after
	// every step, compensating integrator drift of the conserved quantity.
	Renormalize bool
	// monitor, when non-nil, receives (step, t, x) after each step;
	// returning false stops the integration early. Only this package's
	// tests set it.
	monitor func(step int, t float64, x []float64) bool
}

// IntegrateRK4 advances x (in place) by steps fixed RK4 steps of size dt,
// starting at time t0, and returns the final time. The nonlinear field of
// Eq. 1 is used.
func (s *System) IntegrateRK4(x []float64, t0, dt float64, steps int, opts RK4Options) (float64, error) {
	if len(x) != s.Dim() {
		return t0, fmt.Errorf("ode: state length %d, want %d", len(x), s.Dim())
	}
	if dt <= 0 || steps < 0 {
		return t0, fmt.Errorf("ode: invalid dt = %g or steps = %d", dt, steps)
	}
	n := s.Dim()
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	t := t0
	for step := 1; step <= steps; step++ {
		s.RHS(k1, x)
		stage(tmp, x, k1, dt/2)
		s.RHS(k2, tmp)
		stage(tmp, x, k2, dt/2)
		s.RHS(k3, tmp)
		stage(tmp, x, k3, dt)
		s.RHS(k4, tmp)
		for i := range x {
			x[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += dt
		if opts.Renormalize {
			renormalizeSimplex(x)
		}
		if !vec.AllFinite(x) {
			return t, fmt.Errorf("ode: state became non-finite at step %d (dt too large?)", step)
		}
		if opts.monitor != nil && !opts.monitor(step, t, x) {
			return t, nil
		}
	}
	return t, nil
}

func stage(dst, x, k []float64, h float64) {
	for i := range dst {
		dst[i] = x[i] + h*k[i]
	}
}

// renormalizeSimplex clamps tiny negatives and rescales to Σx = 1.
func renormalizeSimplex(x []float64) {
	var sum float64
	for i, v := range x {
		if v < 0 {
			x[i] = 0
			continue
		}
		sum += v
	}
	if sum > 0 {
		vec.Scale(x, 1/sum)
	}
}

// ---------------------------------------------------------------------------
// Adaptive Runge–Kutta–Fehlberg 4(5)

// AdaptiveOptions configures adaptive integration.
type AdaptiveOptions struct {
	// Tol is the local error tolerance per unit step (default 1e-9).
	Tol float64
	// Renormalize projects back onto the simplex after accepted steps.
	Renormalize bool
}

// ErrStepUnderflow is returned when the adaptive controller cannot meet
// the tolerance with the minimum step size, 1e-12·(t1−t0).
var ErrStepUnderflow = errors.New("ode: adaptive step size underflow")

// rkf45 coefficients (Fehlberg).
var (
	rkfA = [6][5]float64{
		{},
		{1.0 / 4},
		{3.0 / 32, 9.0 / 32},
		{1932.0 / 2197, -7200.0 / 2197, 7296.0 / 2197},
		{439.0 / 216, -8, 3680.0 / 513, -845.0 / 4104},
		{-8.0 / 27, 2, -3544.0 / 2565, 1859.0 / 4104, -11.0 / 40},
	}
	rkfB4 = [6]float64{25.0 / 216, 0, 1408.0 / 2565, 2197.0 / 4104, -1.0 / 5, 0}
	rkfB5 = [6]float64{16.0 / 135, 0, 6656.0 / 12825, 28561.0 / 56430, -9.0 / 50, 2.0 / 55}
)

// IntegrateAdaptive advances x (in place) from t0 to t1 with the
// Runge–Kutta–Fehlberg 4(5) pair and PI step-size control, returning the
// number of accepted steps. The first step is (t1−t0)/100, and the run
// stops with an error after 10 000 000 accepted steps.
func (s *System) IntegrateAdaptive(x []float64, t0, t1 float64, opts AdaptiveOptions) (int, error) {
	if len(x) != s.Dim() {
		return 0, fmt.Errorf("ode: state length %d, want %d", len(x), s.Dim())
	}
	if t1 <= t0 {
		return 0, fmt.Errorf("ode: t1 = %g must exceed t0 = %g", t1, t0)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-9
	}
	h := (t1 - t0) / 100
	minStep := 1e-12 * (t1 - t0)
	const maxSteps = 10000000

	n := s.Dim()
	var k [6][]float64
	for i := range k {
		k[i] = make([]float64, n)
	}
	tmp := make([]float64, n)
	x4 := make([]float64, n)

	t := t0
	accepted := 0
	for t < t1 {
		if h > t1-t {
			h = t1 - t
		}
		// Stages.
		s.RHS(k[0], x)
		for stg := 1; stg < 6; stg++ {
			copy(tmp, x)
			for j := 0; j < stg; j++ {
				if a := rkfA[stg][j]; a != 0 {
					vec.AXPY(h*a, k[j], tmp)
				}
			}
			s.RHS(k[stg], tmp)
		}
		// 4th and 5th order solutions; error = ‖x5 − x4‖∞.
		copy(x4, x)
		copy(tmp, x) // tmp = x5
		for j := 0; j < 6; j++ {
			if rkfB4[j] != 0 {
				vec.AXPY(h*rkfB4[j], k[j], x4)
			}
			if rkfB5[j] != 0 {
				vec.AXPY(h*rkfB5[j], k[j], tmp)
			}
		}
		errNorm := vec.DistInf(tmp, x4)
		scale := tol * math.Max(1, vec.NormInf(x))
		if errNorm <= scale*h || h <= minStep {
			if errNorm > scale*h && h <= minStep {
				return accepted, fmt.Errorf("%w at t = %g (error %g)", ErrStepUnderflow, t, errNorm)
			}
			copy(x, tmp) // accept the 5th-order solution (local extrapolation)
			t += h
			accepted++
			if opts.Renormalize {
				renormalizeSimplex(x)
			}
			if !vec.AllFinite(x) {
				return accepted, fmt.Errorf("ode: state became non-finite at t = %g", t)
			}
			if accepted >= maxSteps {
				return accepted, fmt.Errorf("ode: step budget %d exhausted at t = %g < t1 = %g",
					maxSteps, t, t1)
			}
		}
		// PI controller (order 4 ⇒ exponent 1/5), clamped growth.
		var factor float64
		if errNorm == 0 {
			factor = 5
		} else {
			factor = 0.9 * math.Pow(scale*h/errNorm, 0.2)
			factor = math.Max(0.2, math.Min(5, factor))
		}
		h *= factor
		if h < minStep {
			h = minStep
		}
	}
	return accepted, nil
}

// ---------------------------------------------------------------------------
// Steady state

// SteadyStateOptions configures the run-to-stationarity driver.
type SteadyStateOptions struct {
	// Tol stops when ‖dx/dt‖₂ ≤ Tol (default 1e-10).
	Tol float64
	// Dt is the RK4 step (default 0.05/f_max-ish; caller should scale with
	// the fitness magnitudes). Default 0.01.
	Dt float64
	// MaxSteps caps the run (default 10_000_000).
	MaxSteps int
}

// SteadyState integrates the nonlinear system from x (in place) until the
// vector field norm drops below Tol, returning (t, steps). At the fixed
// point, x is the quasispecies distribution and Φ(x) equals the dominant
// eigenvalue λ₀ of W.
func (s *System) SteadyState(x []float64, opts SteadyStateOptions) (float64, int, error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	dt := opts.Dt
	if dt <= 0 {
		dt = 0.01
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10000000
	}
	deriv := make([]float64, s.Dim())
	t := 0.0
	const block = 64
	for steps := 0; steps < maxSteps; steps += block {
		var err error
		t, err = s.IntegrateRK4(x, t, dt, block, RK4Options{Renormalize: true})
		if err != nil {
			return t, steps, err
		}
		s.RHS(deriv, x)
		if vec.Norm2(deriv) <= tol {
			return t, steps + block, nil
		}
	}
	s.RHS(deriv, x)
	return t, maxSteps, fmt.Errorf("ode: no steady state after %d steps (‖ẋ‖ = %g, tol %g)",
		maxSteps, vec.Norm2(deriv), tol)
}
