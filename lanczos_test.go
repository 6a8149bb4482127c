package quasispecies

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// lanczosSolve runs a MethodLanczos solve and checks that its Right-form
// concentrations meet the tolerance by the facade's own residual.
func lanczosSolve(t *testing.T, label string, mut Mutation, land Landscape, opts ...Option) (*Model, *Solution) {
	t.Helper()
	model := newModel(t, mut, land, append(opts, WithMethod(MethodLanczos))...)
	sol, err := model.Solve()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r, err := model.Residual(sol.Lambda, sol.Concentrations)
	if err != nil {
		t.Fatal(err)
	}
	if tol := model.effectiveTol(); !(r <= tol) {
		t.Errorf("%s: residual %g after %d matvecs, tolerance %g", label, r, sol.Iterations, tol)
	}
	return model, sol
}

// TestLanczosConvergesNearThreshold: on Eq. 13 random landscapes (c = 5,
// σ = 1) at 0.95·ln 5/ν, started from the fitness vector, the power
// iteration's stall guard stops MethodFmmp on three of these four points
// (ROADMAP item 16). MethodLanczos runs the probe, Chebyshev and
// shift-invert ladder and converges on all four within the default
// tolerance, in a few dozen matvecs.
func TestLanczosConvergesNearThreshold(t *testing.T) {
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
			label := fmt.Sprintf("ν=%d seed %d p=%.6g", nu, seed, p)
			_, sol := lanczosSolve(t, label, mut, land, WithStart(core.FitnessStart(land.l)))
			if sol.Iterations >= 100 {
				t.Errorf("%s: %d matvecs, want fewer than 100", label, sol.Iterations)
			}
			t.Logf("%s: %d matvecs", label, sol.Iterations)
		}
	}
}

// TestLanczosStopsEarlyAndMatchesFmmp: away from the threshold the probe
// stops as soon as its top Ritz pair meets the tolerance, so MethodLanczos
// takes fewer matvecs than one 24-step Lanczos cycle plus its residual
// check, and it reaches MethodFmmp's λ within both pairs' residual bounds
// and its concentrations to 1e-7.
func TestLanczosStopsEarlyAndMatchesFmmp(t *testing.T) {
	const nu = 12
	land, err := RandomLandscape(nu, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.005, 0.01, 0.02, 0.05} {
		mut, err := UniformMutation(nu, p)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("ν=%d p=%g", nu, p)
		model, sol := lanczosSolve(t, label, mut, land)
		if sol.Iterations >= 25 {
			t.Errorf("%s: %d matvecs, want fewer than 25", label, sol.Iterations)
		}
		ref, err := newModel(t, mut, land, WithMethod(MethodFmmp)).Solve()
		if err != nil {
			t.Fatal(err)
		}
		bound := eigenvalueBound(t, model, land, sol.Lambda, sol.Concentrations) +
			eigenvalueBound(t, model, land, ref.Lambda, ref.Concentrations)
		if d := math.Abs(sol.Lambda - ref.Lambda); d > bound {
			t.Errorf("%s: λ = %.17g, Fmmp %.17g: |Δλ| = %g > bound %g", label, sol.Lambda, ref.Lambda, d, bound)
		}
		var dx float64
		for i, x := range sol.Concentrations {
			dx = max(dx, math.Abs(x-ref.Concentrations[i]))
		}
		if dx > 1e-7 {
			t.Errorf("%s: concentrations differ from Fmmp by %g", label, dx)
		}
		t.Logf("%s: %d matvecs (Fmmp %d iterations)", label, sol.Iterations, ref.Iterations)
	}
}

// TestLanczosResumesFromStart: WithStart seeds the gap probe, so a solve
// resumed from a converged Solution's concentrations stops within a few
// matvecs, well under the cold solve's count.
func TestLanczosResumesFromStart(t *testing.T) {
	const nu = 12
	mut, err := UniformMutation(nu, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	land, err := RandomLandscape(nu, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, cold := lanczosSolve(t, "cold", mut, land)
	_, warm := lanczosSolve(t, "resumed", mut, land, WithStart(cold.Concentrations))
	if 2*warm.Iterations > cold.Iterations {
		t.Errorf("resumed solve took %d matvecs, cold %d: want at most half", warm.Iterations, cold.Iterations)
	}
	if d := math.Abs(warm.Lambda - cold.Lambda); d > 1e-12 {
		t.Errorf("resumed λ = %.17g, cold %.17g", warm.Lambda, cold.Lambda)
	}
}

// TestLanczosRejectsUnsupportedProcess: MethodLanczos fails with
// ErrInvalidModel before its first matvec on a process where its ladder is
// unsound. With Stay0 ≠ Stay1 the mutation matrix is not symmetric, so
// F^½QF^½ is not either and neither Lanczos nor CG applies. With
// Stay0 = Stay1 = 0.2 it is symmetric but indefinite (each factor has the
// eigenvalue −0.6), so 0 is no lower Chebyshev edge. MethodFmmp and
// MethodArnoldi solve both models.
func TestLanczosRejectsUnsupportedProcess(t *testing.T) {
	const nu = 10
	land, err := RandomLandscape(nu, 5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		site SiteFactor
		want float64
	}{
		{"asymmetric", SiteFactor{Stay0: 0.99, Stay1: 0.90}, 4.534649004412},
		{"indefinite", SiteFactor{Stay0: 0.2, Stay1: 0.2}, 1.002333855831},
	} {
		factors := make([]SiteFactor, nu)
		for k := range factors {
			factors[k] = c.site
		}
		mut, err := GeneralMutation(factors)
		if err != nil {
			t.Fatal(err)
		}
		log := &traceLog{}
		_, err = newModel(t, mut, land, WithMethod(MethodLanczos), WithTolerance(1e-10), WithObserver(log)).Solve()
		if !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("%s: MethodLanczos err = %v, want ErrInvalidModel", c.name, err)
		}
		if log.steps != 0 || len(log.events) != 0 {
			t.Errorf("%s: MethodLanczos ran before failing: %d steps, events %v", c.name, log.steps, log.events)
		}
		for _, m := range []Method{MethodFmmp, MethodArnoldi} {
			sol, err := newModel(t, mut, land, WithMethod(m), WithTolerance(1e-10)).Solve()
			if err != nil {
				t.Fatalf("%s: %v: %v", c.name, m, err)
			}
			if math.Abs(sol.Lambda-c.want) > 1e-9 {
				t.Errorf("%s: %v: λ = %.13g, want %.13g", c.name, m, sol.Lambda, c.want)
			}
		}
	}
}
