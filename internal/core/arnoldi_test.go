package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

func asymmetricProcess(t *testing.T, nu int, seed uint64) *mutation.Process {
	t.Helper()
	r := rng.New(seed)
	factors := make([]mutation.Factor2, nu)
	for i := range factors {
		c0 := 0.01 + 0.05*r.Float64()
		c1 := 0.01 + 0.15*r.Float64() // strongly asymmetric
		factors[i] = mutation.Factor2{A: 1 - c0, B: c1, C: c0, D: 1 - c1}
	}
	q, err := mutation.NewPerSite(factors)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestArnoldiMatchesPowerOnNonsymmetricW(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		const nu = 8
		q := asymmetricProcess(t, nu, seed)
		l := randLandscape(rng.New(seed+10), nu)
		op, _ := NewFmmpOperator(q, l, Right, nil)

		pi, err := PowerIteration(op, PowerOptions{Tol: 1e-11, Start: FitnessStart(l)})
		if err != nil {
			t.Fatal(err)
		}
		ar, err := Arnoldi(op, ArnoldiOptions{Tol: 1e-11, Start: FitnessStart(l)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ar.Converged {
			t.Fatal("Arnoldi did not converge")
		}
		if math.Abs(ar.Lambda-pi.Lambda) > 1e-8 {
			t.Errorf("seed %d: Arnoldi λ = %.14g, power λ = %.14g", seed, ar.Lambda, pi.Lambda)
		}
		if d := vec.DistInf(ar.Vector, pi.Vector); d > 1e-6 {
			t.Errorf("seed %d: eigenvectors differ by %g", seed, d)
		}
		t.Logf("seed %d: Arnoldi %d matvecs vs power %d iterations", seed, ar.MatVecs, pi.Iterations)
	}
}

func TestArnoldiOnSymmetricAgreesWithLanczos(t *testing.T) {
	const nu = 8
	q := mutation.MustUniform(nu, 0.02)
	l := randLandscape(rng.New(3), nu)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)
	lz, err := ShiftInvertLanczos(op, ShiftInvertOptions{
		Tol: 1e-11, Shift: UpperBoundLambda(l), Start: FitnessStart(l),
	})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Arnoldi(op, ArnoldiOptions{Tol: 1e-11, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ar.Lambda-lz.Lambda) > 1e-8 {
		t.Errorf("Arnoldi λ = %.14g, Lanczos λ = %.14g", ar.Lambda, lz.Lambda)
	}
	if d := vec.DistInf(ar.Vector, lz.Vector); d > 1e-6 {
		t.Errorf("eigenvectors differ by %g", d)
	}
}

func TestArnoldiBeatsPowerNearThreshold(t *testing.T) {
	const nu = 10
	q := mutation.MustUniform(nu, 0.05)
	l, _ := landscape.NewSinglePeak(nu, 2, 1)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	pi, err := PowerIteration(op, PowerOptions{Tol: 1e-10, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Arnoldi(op, ArnoldiOptions{Tol: 1e-10, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	if ar.MatVecs >= pi.Iterations {
		t.Errorf("Arnoldi used %d matvecs vs power's %d near the threshold", ar.MatVecs, pi.Iterations)
	}
}

func TestArnoldiValidation(t *testing.T) {
	q := mutation.MustUniform(4, 0.1)
	l, _ := landscape.NewUniform(4, 1)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	if _, err := Arnoldi(op, ArnoldiOptions{Start: make([]float64, 3)}); err == nil {
		t.Error("wrong start length must be rejected")
	}
	if _, err := Arnoldi(op, ArnoldiOptions{Start: make([]float64, 16)}); err == nil {
		t.Error("zero start must be rejected")
	}
}

func TestArnoldiBudgetExhaustion(t *testing.T) {
	const nu = 8
	q := mutation.MustUniform(nu, 0.04)
	l, _ := landscape.NewSinglePeak(nu, 2, 1)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := Arnoldi(op, ArnoldiOptions{Tol: 1e-30})
	if err == nil {
		t.Fatal("an unattainable tolerance must fail")
	}
	if !errors.Is(err, ErrNoConvergence) && !errors.Is(err, ErrStagnated) {
		t.Errorf("err = %v, want ErrNoConvergence or ErrStagnated", err)
	}
	if res.Vector == nil {
		t.Error("partial result must be populated")
	}
}

func TestArnoldiFullDimensionBasis(t *testing.T) {
	q := mutation.MustUniform(3, 0.05)
	l := randLandscape(rng.New(4), 3)
	op, _ := NewFmmpOperator(q, l, Right, nil)
	res, err := Arnoldi(op, ArnoldiOptions{Tol: 1e-11, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("full-dimension Arnoldi must converge in one cycle")
	}
}
