package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
)

func denseSpectrum(t *testing.T, q *mutation.Process, l landscape.Landscape) []float64 {
	t.Helper()
	dw, err := NewDenseW(q, l, Symmetric)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := dense.JacobiEigen(dw.M, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// denseProbe runs RitzGap's probe (24 steps from the fixed start) and
// checks its pair against the dense spectrum vals, with tolerances taken
// from the probe itself: θ₀ lies within its residual estimate of λ₀, θ₁ is
// a lower bound on λ₁ (interlacing) that has climbed past λ₂, and the
// Chebyshev edge the selector builds from the pair separates λ₁ from λ₀. The dense Jacobi oracle's own
// rounding, about 1e-13·λ₀ at ν = 7, adds a 1e-12·λ₀ slack.
func denseProbe(t *testing.T, op Operator, vals []float64) (theta0, theta1 float64) {
	t.Helper()
	p, err := ritzGap(op, 24, nil, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	theta0, theta1 = p.theta0, p.theta1
	if !RitzResolved(theta0, theta1) {
		t.Fatalf("probe pair (%.15g, %.15g) unresolved", theta0, theta1)
	}
	round := 1e-12 * math.Abs(vals[0])
	if math.Abs(theta0-vals[0]) > p.residual+round {
		t.Errorf("θ₀ = %.15g, dense λ₀ = %.15g: beyond the residual estimate %g", theta0, vals[0], p.residual)
	}
	if !(vals[2] < theta1 && theta1 <= vals[1]+round) {
		t.Errorf("θ₁ = %.15g outside (λ₂, λ₁] = (%.15g, %.15g]", theta1, vals[2], vals[1])
	}
	if b := chebyshevEdge(theta0, theta1); !(vals[1] <= b+round && b < vals[0]) {
		t.Errorf("edge %.15g does not separate λ₁ = %.15g from λ₀ = %.15g", b, vals[1], vals[0])
	}
	return theta0, theta1
}

func TestEstimateGapAndShiftImprovement(t *testing.T) {
	const nu = 7
	const p = 0.01
	q := mutation.MustUniform(nu, p)
	l := randLandscape(rng.New(5), nu)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)
	mu := ConservativeShift(q, l)
	theta0, theta1 := denseProbe(t, op, denseSpectrum(t, q, l))
	rate := theta1 / theta0
	if !(rate > 0 && rate < 1) {
		t.Fatalf("rate %g outside (0,1)", rate)
	}
	// The positive shift must strictly improve the rate: both θ are
	// positive here, so subtracting µ > 0 shrinks the ratio.
	if shifted := (theta1 - mu) / (theta0 - mu); shifted >= rate {
		t.Errorf("shifted rate %g not better than %g", shifted, rate)
	}
}

func TestPredictedIterationsMatchMeasured(t *testing.T) {
	// The gap-based prediction must land within a factor ~2 of the real
	// iteration count (start-vector overlap shifts the constant).
	const nu = 7
	const p = 0.015
	q := mutation.MustUniform(nu, p)
	l := randLandscape(rng.New(7), nu)
	op, _ := NewFmmpOperator(q, l, Symmetric, nil)

	theta0, theta1 := denseProbe(t, op, denseSpectrum(t, q, l))
	rate := theta1 / theta0
	const tol = 1e-10
	predicted, err := PredictIterations(rate, tol)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := PowerIteration(op, PowerOptions{Tol: tol, Start: FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := predicted/3, predicted*3+10
	if measured.Iterations < lo || measured.Iterations > hi {
		t.Errorf("measured %d iterations, predicted %d (accepted [%d, %d], rate %g)",
			measured.Iterations, predicted, lo, hi, rate)
	}
	t.Logf("rate %.4f: predicted %d, measured %d", rate, predicted, measured.Iterations)
}

func TestPredictIterationsValidation(t *testing.T) {
	if _, err := PredictIterations(1.5, 0.1); err == nil {
		t.Error("rate ≥ 1 must be rejected")
	}
	if _, err := PredictIterations(0.5, 2); err == nil {
		t.Error("eps ≥ 1 must be rejected")
	}
	n, err := PredictIterations(0.5, 0.25)
	if err != nil || n != 2 {
		t.Errorf("PredictIterations(0.5, 0.25) = %d, %v; want 2", n, err)
	}
}

func TestGapClosesNearThreshold(t *testing.T) {
	// The paper's Figure 1 phenomenon in spectral terms: the gap of the
	// single-peak problem shrinks as p approaches p_max.
	const nu = 7
	l, _ := landscape.NewSinglePeak(nu, 2, 1)
	rate := func(p float64) float64 {
		q := mutation.MustUniform(nu, p)
		op, _ := NewFmmpOperator(q, l, Symmetric, nil)
		theta0, theta1 := denseProbe(t, op, denseSpectrum(t, q, l))
		return theta1 / theta0
	}
	far := rate(0.01)
	near := rate(0.07) // p_max ≈ 0.094 at ν = 7
	if near <= far {
		t.Errorf("rate near threshold (%g) should exceed rate far below it (%g)", near, far)
	}
}

// diagOp is a diagonal (hence symmetric) operator with a fully known
// spectrum — the edge-case rig for the gap estimator.
type diagOp struct{ d []float64 }

func (o diagOp) Dim() int { return len(o.d) }
func (o diagOp) Apply(dst, src []float64) {
	for i := range dst {
		dst[i] = o.d[i] * src[i]
	}
}

func TestEstimateGapEdgeCases(t *testing.T) {
	// The probe on a 16-point diagonal spectrum: k = 24 clamps to the
	// dimension, so a resolved pair is exact up to rounding.
	pad := func(d []float64) []float64 {
		for i := len(d); i < 16; i++ {
			d = append(d, 0.1/float64(i+1))
		}
		return d
	}
	cases := []struct {
		name string
		d    []float64
		k    int
		// resolved is what RitzResolved must say of the probe pair; a
		// resolved full-dimension pair must match d[0], d[1] within 1e-12.
		resolved   bool
		wantReason string // non-empty: RitzGap itself reports the gap unresolved
	}{
		{name: "well_separated", d: pad([]float64{1, 0.5}), k: 24, resolved: true},
		{name: "modest_gap", d: pad([]float64{1, 0.99}), k: 24, resolved: true},
		{name: "exactly_degenerate", d: pad([]float64{1, 1}), k: 24},
		{name: "near_degenerate", d: pad([]float64{1, 1 - 1e-15}), k: 24},
		// Separated, but by less than RitzResolved's 1e-10·|θ₀| floor.
		{name: "below_resolution_floor", d: pad([]float64{1, 1 - 1e-11}), k: 24},
		{
			name: "unconverged_ritz",
			// One distinct eigenvalue: the Krylov space closes after one
			// step and no second Ritz value exists.
			d: []float64{1, 1, 1, 1, 1, 1, 1, 1}, k: 8, wantReason: "unconverged_ritz",
		},
		{
			name: "stagnated_but_resolved",
			// A probe cut off after 3 steps has not converged θ₁, but a
			// separation that dwarfs the floor still counts as resolved.
			d: pad([]float64{1, 0.5}), k: 3, resolved: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			theta0, theta1, err := RitzGap(diagOp{c.d}, c.k, nil, nil)
			if c.wantReason != "" {
				var ge *GapUnresolvedError
				if !errors.As(err, &ge) || !errors.Is(err, ErrGapUnresolved) {
					t.Fatalf("got %v, want *GapUnresolvedError", err)
				}
				if ge.Reason != c.wantReason {
					t.Fatalf("reason %q, want %q", ge.Reason, c.wantReason)
				}
				if theta0 != c.d[0] {
					t.Fatalf("θ₀ = %.17g, want %.17g alongside the error", theta0, c.d[0])
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got := RitzResolved(theta0, theta1); got != c.resolved {
				t.Fatalf("RitzResolved(%.17g, %.17g) = %v, want %v", theta0, theta1, got, c.resolved)
			}
			if c.resolved && c.k >= len(c.d) &&
				(math.Abs(theta0-c.d[0]) > 1e-12 || math.Abs(theta1-c.d[1]) > 1e-12) {
				t.Fatalf("Ritz values (%.17g, %.17g), want (%.17g, %.17g)",
					theta0, theta1, c.d[0], c.d[1])
			}
		})
	}
}

func TestRitzGapDegenerateKrylovSpace(t *testing.T) {
	// The identity's Krylov space closes after one step: no second Ritz
	// value exists and RitzGap must say so, not fabricate a zero gap.
	d := make([]float64, 8)
	for i := range d {
		d[i] = 1
	}
	_, _, err := RitzGap(diagOp{d}, 8, nil, nil)
	if !errors.Is(err, ErrGapUnresolved) {
		t.Fatalf("got %v, want ErrGapUnresolved", err)
	}
}

func TestRitzGapValidation(t *testing.T) {
	d := []float64{1, 0.5, 0.25, 0.125}
	if _, _, err := RitzGap(diagOp{d}, 1, nil, nil); err == nil {
		t.Error("k < 2 must be rejected")
	}
	if _, _, err := RitzGap(diagOp{d}, 4, []float64{1, 2}, nil); err == nil {
		t.Error("mis-sized start must be rejected")
	}
	theta0, theta1, err := RitzGap(diagOp{d}, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta0-1) > 1e-10 || math.Abs(theta1-0.5) > 1e-10 {
		t.Errorf("full-dimension probe is exact: got (%.12g, %.12g), want (1, 0.5)", theta0, theta1)
	}
}
