package harness

import (
	"math"
	"testing"

	"repro/internal/landscape"
)

func TestTheoreticalThreshold(t *testing.T) {
	got, err := TheoreticalThreshold(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(2, -1.0/20)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("p_max = %g, want %g", got, want)
	}
	// ≈ ln2/ν for small p.
	if math.Abs(got-math.Ln2/20) > 0.001 {
		t.Errorf("p_max = %g far from ln2/ν = %g", got, math.Ln2/20)
	}
	for _, sigma := range []float64{1, math.NaN(), math.Inf(1)} {
		if p, err := TheoreticalThreshold(sigma, 20); err == nil {
			t.Errorf("σ = %g must be rejected, got p_max = %g", sigma, p)
		}
	}
	if _, err := TheoreticalThreshold(2, 0); err == nil {
		t.Error("ν < 1 must be rejected")
	}
}

func TestLocateThresholdMatchesPaperAndTheory(t *testing.T) {
	// The paper reads p_max ≈ 0.035 off Figure 1 for ν = 20, σ = 2; the
	// first-order theory gives 0.0341. Bisection on the solved model must
	// land nearby.
	l, _ := landscape.NewSinglePeak(20, 2, 1)
	located, err := LocateThresholdOpts(l, 0.005, 0.08, 1e-5, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	theory, _ := TheoreticalThreshold(2, 20)
	if math.Abs(located-0.035) > 0.005 {
		t.Errorf("located p_max = %g, paper reads ≈ 0.035", located)
	}
	if math.Abs(located-theory) > 0.005 {
		t.Errorf("located p_max = %g, theory %g", located, theory)
	}
	t.Logf("located %0.5f, theory %0.5f, paper ≈0.035", located, theory)
}

func TestLocateThresholdScalesWithSigma(t *testing.T) {
	// Doubling σ raises the threshold roughly like ln σ.
	l2, _ := landscape.NewSinglePeak(16, 2, 1)
	l4, _ := landscape.NewSinglePeak(16, 4, 1)
	p2, err := LocateThresholdOpts(l2, 0.005, 0.2, 1e-4, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := LocateThresholdOpts(l4, 0.005, 0.2, 1e-4, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p4 <= p2 {
		t.Errorf("fitter master must tolerate more error: p_max(σ=4)=%g vs p_max(σ=2)=%g", p4, p2)
	}
	ratio := p4 / p2
	if math.Abs(ratio-2) > 0.25 { // ln4/ln2 = 2
		t.Errorf("threshold ratio %g, expected ≈ ln4/ln2 = 2", ratio)
	}
}

func TestLocateThresholdBracketValidation(t *testing.T) {
	l, _ := landscape.NewSinglePeak(12, 2, 1)
	if _, err := LocateThresholdOpts(l, 0.2, 0.4, 1e-4, SweepOptions{Workers: 1}); err == nil {
		t.Error("already-disordered lower bracket must error")
	}
	if _, err := LocateThresholdOpts(l, 0.001, 0.002, 1e-4, SweepOptions{Workers: 1}); err == nil {
		t.Error("still-ordered upper bracket must error")
	}
	if _, err := LocateThresholdOpts(l, -1, 0.1, 1e-4, SweepOptions{Workers: 1}); err == nil {
		t.Error("invalid bracket must error")
	}
	for _, tol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if p, err := LocateThresholdOpts(l, 0.01, 0.1, tol, SweepOptions{Workers: 1}); err == nil {
			t.Errorf("tol = %g must error, got p_max = %g", tol, p)
		}
	}
	// No threshold for the linear landscape within a sensible bracket: the
	// decay is smooth, but the criterion still crosses somewhere — verify
	// the function simply works and returns increasing-p order.
	lin, _ := landscape.NewLinear(12, 2, 1)
	if _, err := LocateThresholdOpts(lin, 0.0005, 0.45, 1e-4, SweepOptions{Workers: 1}); err != nil {
		t.Logf("linear landscape: %v (acceptable: criterion may not bracket)", err)
	}
	rl, _ := landscape.NewRandom(8, 5, 1, 1)
	if _, err := LocateThresholdOpts(rl, 0.001, 0.1, 1e-4, SweepOptions{Workers: 1}); err == nil {
		t.Error("unstructured landscape must be rejected")
	}
}
