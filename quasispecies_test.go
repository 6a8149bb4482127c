package quasispecies

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/vec"
)

func TestQuickstartPath(t *testing.T) {
	mut, err := UniformMutation(10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	land, err := SinglePeak(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := New(mut, land)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodReduced {
		t.Errorf("auto method = %v, want reduced for a class landscape", sol.Method)
	}
	if sol.Lambda < 1 || sol.Lambda > 2 {
		t.Errorf("λ = %g outside (1, 2)", sol.Lambda)
	}
	if sol.MasterConcentration() < 0.3 {
		t.Errorf("master concentration %g; expected ordered regime", sol.MasterConcentration())
	}
	if math.Abs(vec.Sum(sol.Gamma)-1) > 1e-10 {
		t.Error("Γ distribution must sum to 1")
	}
	if math.Abs(vec.Sum(sol.Concentrations)-1) > 1e-10 {
		t.Error("concentrations must sum to 1")
	}
}

func TestAllMethodsAgree(t *testing.T) {
	const nu = 9
	mut, _ := UniformMutation(nu, 0.01)
	land, _ := SinglePeak(nu, 2, 1)
	methods := []Method{MethodFmmp, MethodLanczos, MethodArnoldi, MethodReduced}
	var ref *Solution
	for _, m := range methods {
		model, err := New(mut, land, WithMethod(m), WithTolerance(1e-12))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := model.Solve()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ref == nil {
			ref = sol
			continue
		}
		if math.Abs(sol.Lambda-ref.Lambda) > 1e-8 {
			t.Errorf("%v: λ = %.14g vs ref %.14g", m, sol.Lambda, ref.Lambda)
		}
		if d := vec.DistInf(sol.Concentrations, ref.Concentrations); d > 1e-7 {
			t.Errorf("%v: concentrations deviate by %g", m, d)
		}
	}
}

func TestXmvpTruncationLosesAccuracy(t *testing.T) {
	// The Xmvp baseline with the paper's dmax = 5, solved as the Fmmp
	// route is (fitness start, conservative shift), must be close to, but
	// measurably different from, the exact solution (≈1e-10 per [10]).
	const nu = 12
	mut, _ := UniformMutation(nu, 0.01)
	land, _ := RandomLandscape(nu, 5, 1, 7)
	exact, err := mustSolve(t, mut, land, WithMethod(MethodFmmp), WithTolerance(1e-13))
	if err != nil {
		t.Fatal(err)
	}
	xm, err := mutation.NewXmvp(nu, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewXmvpOperator(xm, land.l, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := core.PowerIteration(op, core.PowerOptions{
		Tol: 1e-13, Start: core.FitnessStart(land.l), Shift: core.ConservativeShift(mut.q, land.l),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Concentrations(approx.Vector); err != nil {
		t.Fatal(err)
	}
	d := vec.DistInf(exact.Concentrations, approx.Vector)
	if d == 0 {
		t.Error("truncated Xmvp result is suspiciously identical to the exact one")
	}
	if d > 1e-7 {
		t.Errorf("Xmvp(5) deviates by %g; expected ≲1e-8 at p=0.01", d)
	}
}

func mustSolve(t *testing.T, m Mutation, l Landscape, opts ...Option) (*Solution, error) {
	t.Helper()
	model, err := New(m, l, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return model.Solve()
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	const nu = 11
	mut, _ := UniformMutation(nu, 0.01)
	land, _ := RandomLandscape(nu, 5, 1, 3)
	serial, err := mustSolve(t, mut, land, WithMethod(MethodFmmp))
	if err != nil {
		t.Fatal(err)
	}
	par, err := mustSolve(t, mut, land, WithMethod(MethodFmmp), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(serial.Lambda) != math.Float64bits(par.Lambda) {
		t.Errorf("λ: serial %.17g vs parallel %.17g", serial.Lambda, par.Lambda)
	}
	if d := vec.DistInf(serial.Concentrations, par.Concentrations); d != 0 {
		t.Errorf("concentrations deviate by %g", d)
	}
}

// TestSolveBitIdenticalAcrossWorkers: the device sums every reduction on
// the fixed vec.ReduceChunk pieces the serial kernels walk, so Fmmp and
// Lanczos solves under WithWorkers 1, 2 and 3 return the same λ,
// iteration count, residual and concentrations bit for bit, on one piece
// (ν = 17) and on two (ν = 18), where the parallel reductions launch. The
// Fmmp solves run from the class-projected start, which is built serially.
func TestSolveBitIdenticalAcrossWorkers(t *testing.T) {
	for _, nu := range []int{17, 18} {
		land, err := RandomLandscape(nu, 5, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.005, 0.02} {
			mut, err := UniformMutation(nu, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range []Method{MethodFmmp, MethodLanczos} {
				var want *Solution
				for _, workers := range []int{1, 2, 3} {
					got, err := mustSolve(t, mut, land, WithMethod(method), WithWorkers(workers))
					if err != nil {
						t.Fatalf("ν=%d p=%g %v workers=%d: %v", nu, p, method, workers, err)
					}
					if want == nil {
						want = got
						continue
					}
					label := fmt.Sprintf("ν=%d p=%g %v: %d workers", nu, p, method, workers)
					if math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) ||
						got.Iterations != want.Iterations ||
						math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
						t.Errorf("%s: (λ %.17g, %d iterations, residual %g), 1 worker (λ %.17g, %d, %g)",
							label, got.Lambda, got.Iterations, got.Residual, want.Lambda, want.Iterations, want.Residual)
					}
					diff := 0
					for i, x := range got.Concentrations {
						if math.Float64bits(x) != math.Float64bits(want.Concentrations[i]) {
							diff++
						}
					}
					if diff != 0 {
						t.Errorf("%s: %d concentrations differ from 1 worker's", label, diff)
					}
				}
			}
		}
	}
}

func TestGeneralMutationSolves(t *testing.T) {
	const nu = 8
	rates := make([]float64, nu)
	for i := range rates {
		rates[i] = 0.005 + 0.002*float64(i)
	}
	mut, err := PerSiteMutation(rates)
	if err != nil {
		t.Fatal(err)
	}
	land, _ := RandomLandscape(nu, 5, 1, 4)
	sol, err := mustSolve(t, mut, land)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodFmmp {
		t.Errorf("auto method for per-site process = %v, want Fmmp", sol.Method)
	}
	// Cross-check through the residual API.
	model, _ := New(mut, land)
	r, err := model.Residual(sol.Lambda, sol.Concentrations)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-9 {
		t.Errorf("residual %g too large", r)
	}
}

func TestAsymmetricGeneralMutation(t *testing.T) {
	factors := make([]SiteFactor, 6)
	for i := range factors {
		factors[i] = SiteFactor{Stay0: 0.99, Stay1: 0.95} // biased toward 0
	}
	mut, err := GeneralMutation(factors)
	if err != nil {
		t.Fatal(err)
	}
	land, _ := FlatLandscape(6, 1)
	sol, err := mustSolve(t, mut, land, WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	// With flat fitness and bias toward 0, the stationary distribution
	// must put more mass on the master sequence than uniform.
	if sol.Concentrations[0] <= 1.0/64 {
		t.Errorf("x₀ = %g; expected above uniform under 0-bias", sol.Concentrations[0])
	}
}

func TestThresholdCurveFacade(t *testing.T) {
	land, _ := SinglePeak(20, 2, 1)
	pts, err := ThresholdCurve(land, []float64{0.01, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(pts[0].Gamma) != 21 {
		t.Fatal("unexpected shape")
	}
	if pts[0].Gamma[0] < pts[1].Gamma[0] {
		t.Error("master class must shrink with growing p")
	}
}

func TestEvolveConvergesToSolution(t *testing.T) {
	const nu = 7
	mut, _ := UniformMutation(nu, 0.02)
	land, _ := RandomLandscape(nu, 5, 1, 5)
	model, err := New(mut, land, WithMethod(MethodFmmp))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.Evolve(nil, 60, EvolveOptions{Snapshots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.States) != 4 || len(tr.Times) != 4 {
		t.Fatal("snapshot bookkeeping wrong")
	}
	final := tr.Final()
	if d := vec.DistInf(final, sol.Concentrations); d > 1e-6 {
		t.Errorf("dynamics end state deviates from quasispecies by %g", d)
	}
	phi, err := model.MeanFitness(final)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi-sol.Lambda) > 1e-6 {
		t.Errorf("Φ(final) = %g, λ = %g", phi, sol.Lambda)
	}
}

func TestSolveKroneckerLongChain(t *testing.T) {
	// ν = 40 via four 10-bit blocks — already beyond dense verification,
	// still instant.
	fit := make([]float64, 1<<10)
	for i := range fit {
		fit[i] = 1
	}
	fit[0] = 2
	var blocks []KroneckerBlock
	for b := 0; b < 4; b++ {
		blocks = append(blocks, KroneckerBlock{ChainLen: 10, ErrorRate: 0.005, Fitness: fit})
	}
	sol, err := SolveKronecker(blocks, WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if sol.ChainLen() != 40 {
		t.Fatalf("ν = %d", sol.ChainLen())
	}
	gamma := sol.Gamma()
	if len(gamma) != 41 {
		t.Fatalf("Γ classes = %d", len(gamma))
	}
	if math.Abs(vec.Sum(gamma)-1) > 1e-8 {
		t.Error("Γ must sum to 1")
	}
	x0, err := sol.Concentration(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x0-sol.MasterConcentration()) > 1e-15 {
		t.Error("Concentration(0) must equal MasterConcentration")
	}
	mn, mx := sol.ClassEnvelope()
	if len(mn) != 41 || len(mx) != 41 {
		t.Error("envelope shape wrong")
	}
	if sol.Lambda() <= 1 {
		t.Errorf("λ = %g; four weak peaks must lift it above 1", sol.Lambda())
	}
}

func TestValidationErrors(t *testing.T) {
	mut, _ := UniformMutation(5, 0.01)
	land, _ := SinglePeak(6, 2, 1)
	if _, err := New(mut, land); err == nil {
		t.Error("chain length mismatch must be rejected")
	}
	if _, err := New(Mutation{}, land); err == nil {
		t.Error("zero-value Mutation must be rejected")
	}
	land5, _ := SinglePeak(5, 2, 1)
	// τ must be positive and finite, for New and SolveKronecker alike: a
	// NaN τ used to spin until the stall guard, +Inf to accept the first
	// iterate.
	for _, tol := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(mut, land5, WithTolerance(tol)); err == nil {
			t.Errorf("tolerance %g must be rejected", tol)
		}
		if _, err := SolveKronecker([]KroneckerBlock{{ChainLen: 1, ErrorRate: 0.01, Fitness: []float64{2, 1}}}, WithTolerance(tol)); err == nil {
			t.Errorf("SolveKronecker: tolerance %g must be rejected", tol)
		}
	}
	if _, err := New(mut, land5, WithMaxIterations(0)); err == nil {
		t.Error("zero max iterations must be rejected")
	}
	if _, err := New(mut, land5, WithMethod(Method(42))); err == nil {
		t.Error("unknown method must be rejected")
	}
	if _, err := UniformMutation(5, 0.7); err == nil {
		t.Error("p > 1/2 must be rejected")
	}
	if _, err := PerSiteMutation([]float64{0.1, 0}); err == nil {
		t.Error("zero per-site rate must be rejected")
	}
	if _, err := GeneralMutation([]SiteFactor{{Stay0: 1.2, Stay1: 0.5}}); err == nil {
		t.Error("probability > 1 must be rejected")
	}
	if _, err := SolveKronecker(nil); err == nil {
		t.Error("empty Kronecker system must be rejected")
	}
	if _, err := SolveKronecker([]KroneckerBlock{{ChainLen: 3, ErrorRate: 0.01, Fitness: []float64{1, 1}}}); err == nil {
		t.Error("block size mismatch must be rejected")
	}
	if _, err := ThresholdCurve(Landscape{}, []float64{0.1}); err == nil {
		t.Error("zero-value Landscape must be rejected")
	}
}

func TestReducedRefusesUnstructured(t *testing.T) {
	mut, _ := UniformMutation(8, 0.01)
	land, _ := RandomLandscape(8, 5, 1, 6)
	model, err := New(mut, land, WithMethod(MethodReduced))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Solve(); err == nil {
		t.Error("reduced method on a random landscape must fail")
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range []Method{MethodAuto, MethodFmmp, MethodLanczos, MethodReduced, MethodArnoldi} {
		if m.String() == "" {
			t.Error("empty method name")
		}
	}
}

func TestLandscapeAccessors(t *testing.T) {
	land, _ := SinglePeak(6, 2, 1)
	if land.ChainLen() != 6 || land.Fitness(0) != 2 || land.Fitness(5) != 1 {
		t.Error("landscape accessors wrong")
	}
	if !land.IsClassBased() {
		t.Error("single peak must be class based")
	}
	rl, _ := RandomLandscape(6, 5, 1, 1)
	if rl.IsClassBased() {
		t.Error("random landscape must not be class based")
	}
}

func TestShiftOffStillConverges(t *testing.T) {
	mut, _ := UniformMutation(8, 0.01)
	land, _ := RandomLandscape(8, 5, 1, 8)
	on, err := mustSolve(t, mut, land, WithMethod(MethodFmmp), WithShift(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := mustSolve(t, mut, land, WithMethod(MethodFmmp), WithShift(false))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(on.Lambda-off.Lambda) > 1e-9 {
		t.Error("shift changed the answer")
	}
	if on.Iterations >= off.Iterations {
		t.Errorf("shift did not reduce iterations: %d vs %d", on.Iterations, off.Iterations)
	}
}
