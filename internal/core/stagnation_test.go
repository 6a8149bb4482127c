package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
)

func TestStagnationDetected(t *testing.T) {
	// An unattainable tolerance must terminate via ErrStagnated long
	// before the iteration budget, with a near-machine-precision result.
	const nu = 10
	q := mutation.MustUniform(nu, 0.01)
	l := randLandscape(rng.New(1), nu)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := PowerIteration(op, PowerOptions{
		Tol: 1e-30, MaxIter: 100000, Start: FitnessStart(l),
	})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("err = %v, want ErrStagnated", err)
	}
	if res.Iterations >= 100000 {
		t.Error("stagnation guard did not save the budget")
	}
	if res.Residual > 1e-10 {
		t.Errorf("stalled residual %g is not near the floating-point floor", res.Residual)
	}
	// The returned eigenpair is still the right one.
	if res.Lambda < 4 || res.Lambda > 5 {
		t.Errorf("stalled λ = %g implausible for c = 5 landscape", res.Lambda)
	}
}

// TestStagnationGuardWindow: the guard needs powerStallChecks checks
// without improvement after the last one that improved, so a budget of
// that many iterations always ends on the budget, and a longer one on the
// guard.
func TestStagnationGuardWindow(t *testing.T) {
	const nu = 6
	q := mutation.MustUniform(nu, 0.01)
	l := randLandscape(rng.New(2), nu)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := PowerIteration(op, PowerOptions{
		Tol: 1e-30, MaxIter: powerStallChecks, Start: FitnessStart(l),
	})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence within the guard's window", err)
	}
	if res.Iterations != powerStallChecks {
		t.Errorf("iterations = %d, want the full budget %d", res.Iterations, powerStallChecks)
	}
	res, err = PowerIteration(op, PowerOptions{
		Tol: 1e-30, MaxIter: 100000, Start: FitnessStart(l),
	})
	var ce *ConvergenceError
	if !errors.As(err, &ce) || ce.Reason != ErrStagnated {
		t.Fatalf("err = %v, want ErrStagnated past the window", err)
	}
	if ce.SinceImprovement != powerStallChecks || res.Iterations <= powerStallChecks {
		t.Errorf("stagnated at iteration %d, %d after the last improvement; want %d after it",
			res.Iterations, ce.SinceImprovement, powerStallChecks)
	}
}

func TestDefaultTolerance(t *testing.T) {
	small, _ := landscape.NewUniform(4, 1)
	if got := DefaultTolerance(small); got != 1e-12 {
		t.Errorf("small-problem default = %g, want the 1e-12 floor", got)
	}
	big, _ := landscape.NewRandom(40, 5, 1, 1)
	got := DefaultTolerance(big)
	want := 64 * 2.220446049250313e-16 * 5 * math.Sqrt(math.Pow(2, 40))
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("large-problem default = %g, want %g", got, want)
	}
	if got <= 1e-12 {
		t.Error("large problems must get a relaxed default")
	}
}

func TestStagnationResultUsable(t *testing.T) {
	// The stalled eigenpair must match a converged solve at a realistic
	// tolerance.
	const nu = 8
	q := mutation.MustUniform(nu, 0.02)
	l := randLandscape(rng.New(3), nu)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	ok, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := PowerIteration(op, PowerOptions{Tol: 1e-30, Start: FitnessStart(l)})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("err = %v", err)
	}
	if math.Abs(ok.Lambda-stalled.Lambda) > 1e-12 {
		t.Errorf("stalled λ %.16g vs converged %.16g", stalled.Lambda, ok.Lambda)
	}
}
