package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

// Tests of the cheaper Chebyshev gear: the fused three-term step, the
// provable lower filter edge, the residual-sized restarts and the budget.

// unfusedApply is FmmpOperator.Apply as separate passes: the leading scale,
// the butterfly transform, the trailing scale.
func unfusedApply(op *FmmpOperator, dst, src []float64) {
	switch op.Form {
	case Right:
		op.Dev.Mul(dst, src, op.fdiag)
	case Symmetric:
		op.Dev.Mul(dst, src, op.fsqrt)
	}
	if op.Dev != nil {
		op.Q.ApplyDevice(op.Dev, dst)
	} else {
		op.Q.Apply(dst)
	}
	if op.Form == Symmetric {
		op.Dev.Mul(dst, dst, op.fsqrt)
	}
}

// Apply (one mutation call per formulation) and applyThreeTerm (the
// recurrence step fused into the last butterfly pass) must reproduce the
// separate passes — Mul, transform, Mul, chebMap2 — bit for bit, for every
// formulation, uniform, per-site and grouped processes (a grouped last
// factor takes the unfused epilogue pass), serially and on 1/2/3 workers.
func TestFmmpApplyAndThreeTermBitIdenticalToPasses(t *testing.T) {
	r := rng.New(4049)
	for _, nu := range []int{1, 2, 11, 13} {
		l := randLandscape(r, nu)
		procs := fusedTestProcesses(t, r, nu)
		if nu >= 3 {
			procs = append(procs, namedProcess{"grouped-last", groupedTestProcess(t, r, nu, nu-2)})
		}
		n := 1 << nu
		src, z, out0 := randVector(r, n), randVector(r, n), randVector(r, n)
		const c, e = 0.7, 0.45
		for _, p := range procs {
			for _, form := range []Formulation{Right, Symmetric} {
				for dname, dev := range map[string]*device.Device{
					"serial": nil, "1-worker": device.New(1),
					"2-workers": device.New(2, device.WithGrain(64)), "3-workers": device.New(3, device.WithGrain(64)),
				} {
					name := fmt.Sprintf("ν=%d %s %v %s", nu, p.name, form, dname)
					op, err := NewFmmpOperator(p.q, l, form, dev)
					if err != nil {
						t.Fatal(err)
					}
					want, got := make([]float64, n), make([]float64, n)
					unfusedApply(op, want, src)
					op.Apply(got, src)
					requireSameVector(t, name+" Apply", got, want)

					wantOut, gotOut := vec.Clone(out0), vec.Clone(out0)
					unfusedApply(op, want, z)
					chebMap2(dev, wantOut, want, z, c, e)
					op.applyThreeTerm(got, z, gotOut, 2/e, c)
					requireSameVector(t, name+" product", got, want)
					requireSameVector(t, name+" three-term", gotOut, wantOut)
				}
			}
		}
	}
}

func requireSameVector(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d = %v, separate passes %v", label, i, got[i], want[i])
		}
	}
}

func TestSymmetricApplyAndChebyshevDoNotAllocate(t *testing.T) {
	q, l, _ := criticalProblem(t, 12, 0.9)
	opS, err := NewFmmpOperator(q, l, Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := opS.Dim()
	dst, src := make([]float64, n), opS.FitnessStart()
	if allocs := testing.AllocsPerRun(10, func() { opS.Apply(dst, src) }); allocs != 0 {
		t.Errorf("Symmetric FmmpOperator.Apply allocates %.0f objects per call", allocs)
	}
	theta0, theta1, err := RitzGap(opS, 24, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := ChebyshevOptions{
		Tol: 1e-12, LowerEdge: ConservativeShift(opS.Q, opS.F), UpperEdge: chebyshevEdge(theta0, theta1),
		Start: src, Work: NewChebyshevWork(n),
	}
	if _, err := ChebyshevIteration(opS, opts); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ChebyshevIteration(opS, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ChebyshevIteration allocates %.0f objects per solve with Work supplied", allocs)
	}
}

// The Rayleigh matvec of a restart counts against MaxMatVecs, so no budget
// is overrun (AdaptiveOptions.MaxIter forwards it per gear attempt), and a
// budget too small for a restart runs none. At ν=10 a 40-matvec budget
// used to end at 41.
func TestChebyshevBudgetCoversRayleighMatVec(t *testing.T) {
	q, l, _ := criticalProblem(t, 10, 0.95)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	theta0, theta1, err := RitzGap(opS, 24, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 2, 3, 31, 32, 40, 41, 62, 70} {
		res, err := ChebyshevIteration(opS, ChebyshevOptions{
			Tol: 1e-30, MaxMatVecs: budget,
			LowerEdge: ConservativeShift(opS.Q, opS.F), UpperEdge: chebyshevEdge(theta0, theta1),
		})
		var ce *ConvergenceError
		if !errors.As(err, &ce) || ce.Reason != ErrNoConvergence {
			t.Fatalf("budget %d: error %v, want budget exhaustion", budget, err)
		}
		// A restart needs two matvecs, so at most one of the budget is left.
		if res.MatVecs > budget || budget-res.MatVecs > 1 || ce.Iterations != res.MatVecs {
			t.Errorf("budget %d: %d matvecs (error reports %d)", budget, res.MatVecs, ce.Iterations)
		}
	}
}

// ConvergenceError.SinceImprovement counts the matvecs actually run since
// the last residual improvement, whatever the restart degrees were.
func TestChebyshevSinceImprovementCountsMatVecs(t *testing.T) {
	q, l, _ := criticalProblem(t, 10, 0.95)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	theta0, theta1, err := RitzGap(opS, 24, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range []float64{chebyshevEdge(theta0, theta1), 1.01 * theta0} {
		steps := &stepLog{}
		_, err := ChebyshevIteration(opS, ChebyshevOptions{
			Tol: 1e-30, MaxMatVecs: 2000, degree: 9, Observer: steps,
			LowerEdge: ConservativeShift(opS.Q, opS.F), UpperEdge: edge,
		})
		var ce *ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("edge %g: error %v, want a ConvergenceError", edge, err)
		}
		best, improvedAt := math.Inf(1), 0
		for i, r := range steps.residuals {
			if r < best*(1-1e-6) {
				best, improvedAt = r, steps.iters[i]
			}
		}
		if want := ce.Iterations - improvedAt; ce.SinceImprovement != want {
			t.Errorf("edge %g (%v): SinceImprovement %d, want %d matvecs", edge, ce.Reason, ce.SinceImprovement, want)
		}
	}
}

// stepLog records the (matvecs, residual) of every Step.
type stepLog struct {
	iters     []int
	residuals []float64
}

func (s *stepLog) Step(iter int, _ float64, r float64) {
	s.iters = append(s.iters, iter)
	s.residuals = append(s.residuals, r)
}
func (s *stepLog) Event(string, int, float64, float64) {}

func TestChebRestartDegree(t *testing.T) {
	for _, c := range []struct {
		name                 string
		deg                  int
		lambda, r, tol, a, b float64
		want                 int
	}{
		// γ = 3, acosh 3 = 1.763: ln(1e4)/1.763 = 5.2 → 6 + 2.
		{"residual-sized", 30, 1, 1e-8, 1e-12, 0, 0.5, 8},
		{"capped at degree", 5, 1, 1e-8, 1e-12, 0, 0.5, 5},
		// A lower edge narrows the interval: γ = 6, acosh 6 = 2.478:
		// ln(1e4)/2.478 = 3.7 → 4 + 2.
		{"lower edge", 30, 1, 1e-8, 1e-12, 0.3, 0.5, 6},
		{"λ inside the interval", 30, 0.4, 1e-8, 1e-12, 0, 0.5, 30},
		{"λ at the edge", 30, 0.5, 1e-8, 1e-12, 0, 0.5, 30},
		{"NaN residual", 30, 1, math.NaN(), 1e-12, 0, 0.5, 30},
	} {
		if got := chebRestartDegree(c.deg, c.lambda, c.r, c.tol, c.a, c.b); got != c.want {
			t.Errorf("%s: degree %d, want %d", c.name, got, c.want)
		}
	}
}

// λ_min(W_S) ≥ ConservativeShift = (1−2p)^ν·f_min, the Chebyshev lower
// edge, for uniform processes, checked against the dense spectrum; a
// per-site process with two-way factors gets a positive edge (checked
// against its dense spectrum by TestShiftIsBelowSmallestEigenvalue) and
// grouped processes the edge 0.
func TestChebLowerEdgeBelowDenseSpectrum(t *testing.T) {
	for _, nu := range []int{3, 5, 7} {
		single, err := landscape.NewSinglePeak(nu, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		linear, err := landscape.NewLinear(nu, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		random, err := landscape.NewRandom(nu, 4, 1.5, uint64(nu))
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string]landscape.Landscape{"single-peak": single, "linear": linear, "random": random} {
			fmin, fmax := l.Bounds()
			// The single-peak threshold at σ = f_max/f_min; the short
			// linear chains have none below ½.
			pc := math.Min(1-math.Pow(fmax/fmin, -1/float64(nu)), 0.45)
			for _, p := range []float64{1e-3, 0.05, pc, 0.25, 0.5} {
				q := mutation.MustUniform(nu, p)
				edge := ConservativeShift(q, l)
				vals := denseSpectrum(t, q, l)
				lmin := vals[len(vals)-1]
				// The dense eigensolver resolves λ_min to ~1e-14·‖W‖.
				if lmin < edge-1e-12*fmax {
					t.Errorf("ν=%d %s p=%g: λ_min %.17g below the lower edge %.17g", nu, name, p, lmin, edge)
				}
				if p < 0.5 && !(edge > 0) {
					t.Errorf("ν=%d %s p=%g: lower edge %g, want > 0", nu, name, p, edge)
				}
			}
		}
		r := rng.New(uint64(nu))
		for _, p := range fusedTestProcesses(t, r, nu)[1:] {
			edge := ConservativeShift(p.q, single)
			if p.name == "per-site" && !(edge > 0) {
				t.Errorf("ν=%d %s process: lower edge %g, want > 0", nu, p.name, edge)
			}
			if p.name != "per-site" && edge != 0 {
				t.Errorf("ν=%d %s process: lower edge %g, want 0", nu, p.name, edge)
			}
		}
	}
}
