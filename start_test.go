package quasispecies

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// eigenvalueBound returns √(f_max/f_min)·‖W·x − λ·x‖₂/‖x‖₂. W = Q·F is
// similar to the symmetric F^½·Q·F^½ through F^½, so by Bauer–Fike an
// eigenvalue of W lies within this distance of λ; for a converged pair it
// is the dominant one.
func eigenvalueBound(t *testing.T, model *Model, land Landscape, lambda float64, x []float64) float64 {
	t.Helper()
	r, err := model.Residual(lambda, x)
	if err != nil {
		t.Fatal(err)
	}
	var nrm float64
	for _, v := range x {
		nrm += v * v
	}
	fmin, fmax := land.l.Bounds()
	return math.Sqrt(fmax/fmin) * r / math.Sqrt(nrm)
}

// newModel is New that fails the test on error.
func newModel(t *testing.T, mut Mutation, land Landscape, opts ...Option) *Model {
	t.Helper()
	model, err := New(mut, land, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestClassStartConvergesNearThreshold: facade MethodFmmp solves of Eq. 13
// random landscapes (c = 5, σ = 1) at 0.95·ln 5/ν converge with a residual
// within the default tolerance. From the fitness start the residual
// climbs before it falls, and the power stall guard stops three of these
// four solves with ErrStagnated; the class-projected start converges on
// all four. The fitness-start stall itself stays open for the callers that
// still use that start (ROADMAP item 16).
func TestClassStartConvergesNearThreshold(t *testing.T) {
	for _, nu := range []int{16, 18} {
		p := 0.95 * math.Log(5) / float64(nu)
		mut, err := UniformMutation(nu, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2} {
			land, err := RandomLandscape(nu, 5, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			model := newModel(t, mut, land, WithMethod(MethodFmmp))
			sol, err := model.Solve()
			if err != nil {
				t.Errorf("ν=%d seed %d p=%.6g: %v", nu, seed, p, err)
				continue
			}
			r, err := model.Residual(sol.Lambda, sol.Concentrations)
			if err != nil {
				t.Fatal(err)
			}
			if tol := core.DefaultTolerance(land.l); !(r <= tol) {
				t.Errorf("ν=%d seed %d: residual %g after %d iterations, tolerance %g",
					nu, seed, r, sol.Iterations, tol)
			}
			t.Logf("ν=%d seed %d p=%.6g: %d iterations, residual %g", nu, seed, p, sol.Iterations, r)
		}
	}
}

// TestClassStartSinglePeakIsExact: on a single peak the class-projected
// start is the reduced eigenvector itself, so MethodFmmp converges within
// two iterations, to the reduced λ within both pairs' residual bounds.
func TestClassStartSinglePeakIsExact(t *testing.T) {
	const nu = 10
	land, err := SinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.01, 0.04, 0.06} {
		mut, err := UniformMutation(nu, p)
		if err != nil {
			t.Fatal(err)
		}
		model := newModel(t, mut, land, WithMethod(MethodFmmp))
		sol, err := model.Solve()
		if err != nil {
			t.Fatalf("p=%g: %v", p, err)
		}
		if sol.Iterations > 2 {
			t.Errorf("p=%g: %d iterations from the class start, want ≤ 2", p, sol.Iterations)
		}
		ref, err := newModel(t, mut, land, WithMethod(MethodReduced)).Solve()
		if err != nil {
			t.Fatal(err)
		}
		bound := eigenvalueBound(t, model, land, sol.Lambda, sol.Concentrations) +
			eigenvalueBound(t, model, land, ref.Lambda, ref.Concentrations)
		if d := math.Abs(sol.Lambda - ref.Lambda); d > bound {
			t.Errorf("p=%g: λ = %.17g, reduced %.17g: |Δλ| = %g > bound %g",
				p, sol.Lambda, ref.Lambda, d, bound)
		}
	}
}

// TestClassStartNoSlowerThanFitnessStart: on Eq. 13 random landscapes
// across solve-nu20's error-rate range and beyond, the default
// class-projected start takes no more iterations than an explicit
// WithStart of the fitness vector, and both reach the same λ within their
// residual bounds.
func TestClassStartNoSlowerThanFitnessStart(t *testing.T) {
	for _, nu := range []int{12, 14, 16} {
		land, err := RandomLandscape(nu, 5, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		fitness := core.FitnessStart(land.l)
		for _, p := range []float64{0.005, 0.01, 0.02, 0.05} {
			mut, err := UniformMutation(nu, p)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("ν=%d p=%g", nu, p)
			model := newModel(t, mut, land, WithMethod(MethodFmmp))
			class, err := model.Solve()
			if err != nil {
				t.Fatalf("%s: class start: %v", label, err)
			}
			cold, err := newModel(t, mut, land, WithMethod(MethodFmmp), WithStart(fitness)).Solve()
			if err != nil {
				t.Fatalf("%s: fitness start: %v", label, err)
			}
			if class.Iterations > cold.Iterations {
				t.Errorf("%s: class start took %d iterations, fitness start %d",
					label, class.Iterations, cold.Iterations)
			}
			bound := eigenvalueBound(t, model, land, class.Lambda, class.Concentrations) +
				eigenvalueBound(t, model, land, cold.Lambda, cold.Concentrations)
			if d := math.Abs(class.Lambda - cold.Lambda); d > bound {
				t.Errorf("%s: λ = %.17g (class start), %.17g (fitness start): |Δλ| = %g > bound %g",
					label, class.Lambda, cold.Lambda, d, bound)
			}
		}
	}
}
