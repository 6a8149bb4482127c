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

func TestLanczosMatchesPowerIteration(t *testing.T) {
	r := rng.New(1)
	for _, nu := range []int{5, 8, 10} {
		q := mutation.MustUniform(nu, 0.01)
		l := randLandscape(r, nu)
		op, err := NewFmmpOperator(q, l, Symmetric, nil)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := PowerIteration(op, PowerOptions{Tol: 1e-12, Start: FitnessStart(l)})
		if err != nil {
			t.Fatal(err)
		}
		lz, err := Lanczos(op, LanczosOptions{Tol: 1e-12, Start: FitnessStart(l)})
		if err != nil {
			t.Fatalf("ν=%d: %v", nu, err)
		}
		if !lz.Converged {
			t.Fatalf("ν=%d: Lanczos did not converge", nu)
		}
		if math.Abs(lz.Lambda-pi.Lambda) > 1e-9 {
			t.Errorf("ν=%d: Lanczos λ = %.15g, power λ = %.15g", nu, lz.Lambda, pi.Lambda)
		}
		if d := vec.DistInf(lz.Vector, pi.Vector); d > 1e-7 {
			t.Errorf("ν=%d: eigenvectors differ by %g", nu, d)
		}
		t.Logf("ν=%d: Lanczos %d matvecs vs power %d iterations (basis %d bytes)",
			nu, lz.MatVecs, pi.Iterations, lz.BasisBytes)
	}
}

func TestLanczosUsesFewerMatVecsOnHardProblem(t *testing.T) {
	// Near the error threshold the spectral gap closes and the power
	// iteration slows dramatically; Lanczos should need far fewer matvecs.
	const nu = 10
	q := mutation.MustUniform(nu, 0.04) // close to the single-peak threshold
	l, _ := landscape.NewSinglePeak(nu, 2, 1)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)
	pi, err := PowerIteration(op, PowerOptions{Tol: 1e-11, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	lz, err := Lanczos(op, LanczosOptions{Tol: 1e-11, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	if lz.MatVecs >= pi.Iterations {
		t.Errorf("Lanczos used %d matvecs, power iteration %d — expected Lanczos to win near the threshold",
			lz.MatVecs, pi.Iterations)
	}
	t.Logf("matvecs: Lanczos %d, power %d", lz.MatVecs, pi.Iterations)
}

func TestLanczosBudgetExhaustion(t *testing.T) {
	// An unattainable tolerance runs every restart; N = 16 keeps them cheap.
	q := mutation.MustUniform(4, 0.03)
	l, _ := landscape.NewSinglePeak(4, 2, 1)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)
	res, err := Lanczos(op, LanczosOptions{Tol: 1e-30})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
	if res.Restarts != lanczosMaxRestarts || res.Vector == nil {
		t.Error("partial result must be populated")
	}
}

func TestLanczosBadStart(t *testing.T) {
	q := mutation.MustUniform(4, 0.1)
	l, _ := landscape.NewUniform(4, 1)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)
	if _, err := Lanczos(op, LanczosOptions{Start: make([]float64, 3)}); err == nil {
		t.Error("wrong start length must error")
	}
	if _, err := Lanczos(op, LanczosOptions{Start: make([]float64, 16)}); err == nil {
		t.Error("zero start must error")
	}
}

func TestLanczosBasisLargerThanDim(t *testing.T) {
	// A basis longer than N = 8 must clamp and still work.
	q := mutation.MustUniform(3, 0.1)
	l := randLandscape(rng.New(2), 3)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)
	res, err := Lanczos(op, LanczosOptions{Tol: 1e-12, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("full-dimension Lanczos must converge in one cycle")
	}
}
