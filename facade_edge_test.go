package quasispecies

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/vec"
)

func TestLinearLandscapeFacade(t *testing.T) {
	l, err := LinearLandscape(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Fitness(0) != 2 {
		t.Error("f₀ wrong")
	}
	if math.Abs(l.Fitness(1<<10-1)-1) > 1e-14 {
		t.Error("f at max distance wrong")
	}
	if !l.IsClassBased() {
		t.Error("linear landscape must be class based")
	}
	if _, err := LinearLandscape(5, 0, 1); err == nil {
		t.Error("non-positive fitness must be rejected")
	}
	// Solves through the reduction (Figure 1 right panel path).
	mut, _ := UniformMutation(10, 0.02)
	model, _ := New(mut, l)
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodReduced {
		t.Errorf("method = %v", sol.Method)
	}
}

// Every landscape constructor rejects NaN and +Inf fitness with the typed
// error, instead of building a landscape whose solve fails later with a
// misleading eigensolver error.
func TestLandscapeConstructorsRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for name, build := range map[string]func(v float64) (Landscape, error){
			"SinglePeak peak":      func(v float64) (Landscape, error) { return SinglePeak(8, v, 1) },
			"SinglePeak base":      func(v float64) (Landscape, error) { return SinglePeak(8, 2, v) },
			"LinearLandscape f0":   func(v float64) (Landscape, error) { return LinearLandscape(8, v, 1) },
			"LinearLandscape fEnd": func(v float64) (Landscape, error) { return LinearLandscape(8, 2, v) },
			"ClassLandscape":       func(v float64) (Landscape, error) { return ClassLandscape([]float64{2, v, 1}) },
			"RandomLandscape c":    func(v float64) (Landscape, error) { return RandomLandscape(8, v, 1, 1) },
			"RandomLandscape σ":    func(v float64) (Landscape, error) { return RandomLandscape(8, 5, v, 1) },
			"ExplicitLandscape":    func(v float64) (Landscape, error) { return ExplicitLandscape([]float64{2, 1, v, 1}) },
			"FlatLandscape":        func(v float64) (Landscape, error) { return FlatLandscape(8, v) },
		} {
			_, err := build(bad)
			if err == nil {
				t.Errorf("%s(%g): accepted", name, bad)
				continue
			}
			if name != "RandomLandscape σ" && !errors.Is(err, landscape.ErrNonPositive) {
				t.Errorf("%s(%g): %v, want landscape.ErrNonPositive", name, bad, err)
			}
		}
	}
}

// TestLandscapeConstructorsRejectChainLength: a chain length whose 2^ν
// sequences an index cannot address is an error from every landscape
// constructor, not a panic.
func TestLandscapeConstructorsRejectChainLength(t *testing.T) {
	for name, build := range map[string]func(nu int) (Landscape, error){
		"SinglePeak":      func(nu int) (Landscape, error) { return SinglePeak(nu, 2, 1) },
		"LinearLandscape": func(nu int) (Landscape, error) { return LinearLandscape(nu, 2, 1) },
		"RandomLandscape": func(nu int) (Landscape, error) { return RandomLandscape(nu, 5, 1, 1) },
		"FlatLandscape":   func(nu int) (Landscape, error) { return FlatLandscape(nu, 1) },
		"ClassLandscape": func(nu int) (Landscape, error) {
			phi := make([]float64, max(nu+1, 0))
			for k := range phi {
				phi[k] = 1
			}
			return ClassLandscape(phi)
		},
	} {
		for _, nu := range []int{-1, MaxChainLen + 1, 100} {
			if _, err := build(nu); err == nil {
				t.Errorf("%s(ν = %d): accepted", name, nu)
			}
		}
	}
}

func TestClassLandscapeFacade(t *testing.T) {
	phi := []float64{3, 2, 1, 1, 1}
	l, err := ClassLandscape(phi)
	if err != nil {
		t.Fatal(err)
	}
	if l.ChainLen() != 4 || l.Fitness(0) != 3 || l.Fitness(0b11) != 1 {
		t.Error("class landscape accessors wrong")
	}
	if _, err := ClassLandscape([]float64{1, -1}); err == nil {
		t.Error("negative ϕ must be rejected")
	}
	if _, err := ClassLandscape(nil); err == nil {
		t.Error("empty ϕ must be rejected")
	}
}

func TestExplicitLandscapeFacade(t *testing.T) {
	f := []float64{1, 2, 3, 4}
	l, err := ExplicitLandscape(f)
	if err != nil {
		t.Fatal(err)
	}
	if l.ChainLen() != 2 || l.Fitness(3) != 4 {
		t.Error("explicit landscape accessors wrong")
	}
	if _, err := ExplicitLandscape([]float64{1, 2, 3}); err == nil {
		t.Error("non-power-of-two length must be rejected")
	}
	// Fully general landscapes go through the fast solver.
	mut, _ := UniformMutation(2, 0.1)
	model, _ := New(mut, l)
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodFmmp {
		t.Errorf("method = %v, want Fmmp for an unstructured landscape", sol.Method)
	}
}

func TestLocateErrorThresholdFacade(t *testing.T) {
	l, _ := SinglePeak(16, 2, 1)
	located, err := LocateErrorThreshold(l, 0.005, 0.1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	theory, err := TheoreticalErrorThreshold(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(located-theory) > 0.01 {
		t.Errorf("located %g vs theory %g", located, theory)
	}
	if _, err := LocateErrorThreshold(Landscape{}, 0.01, 0.1, 1e-4); err == nil {
		t.Error("zero-value landscape must be rejected")
	}
	for _, sigma := range []float64{0.5, math.NaN(), math.Inf(1)} {
		if p, err := TheoreticalErrorThreshold(sigma, 16); err == nil {
			t.Errorf("σ = %g must be rejected, got p_max = %g", sigma, p)
		}
	}
	for _, tol := range []float64{math.NaN(), math.Inf(1)} {
		if p, err := LocateErrorThreshold(l, 0.01, 0.1, tol); err == nil {
			t.Errorf("tol = %g must be rejected, got p_max = %g", tol, p)
		}
	}
}

// TestWithMaxIterationsEnforced: a solve that needs more iterations than
// its budget fails. The start is pinned to the fitness start: on this
// single peak the default class-projected start converges inside 2
// iterations, which would leave the budget untested.
func TestWithMaxIterationsEnforced(t *testing.T) {
	mut, _ := UniformMutation(10, 0.04)
	land, _ := SinglePeak(10, 2, 1)
	model, err := New(mut, land, WithMethod(MethodFmmp), WithMaxIterations(2),
		WithTolerance(1e-14), WithStart(core.FitnessStart(land.l)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Solve(); err == nil {
		t.Error("2-iteration budget near the threshold must fail")
	}
}

func TestMasterConcentrationGammaOnly(t *testing.T) {
	s := &Solution{Gamma: []float64{0.7, 0.2, 0.1}}
	if s.MasterConcentration() != 0.7 {
		t.Error("Γ-only master concentration must come from [Γ0]")
	}
}

func TestSaveFileFailsOnBadPath(t *testing.T) {
	sol := &Solution{Lambda: 1, Gamma: []float64{1}}
	if err := sol.SaveFile("/nonexistent-dir/x.ckpt"); err == nil {
		t.Error("unwritable path must error")
	}
}

func TestEvolveValidation(t *testing.T) {
	mut, _ := UniformMutation(6, 0.02)
	land, _ := SinglePeak(6, 2, 1)
	model, _ := New(mut, land)
	if _, err := model.Evolve(nil, -1, EvolveOptions{}); err == nil {
		t.Error("negative horizon must be rejected")
	}
	if _, err := model.Evolve(make([]float64, 3), 1, EvolveOptions{}); err == nil {
		t.Error("wrong x0 length must be rejected")
	}
	// A NaN or infinite horizon and a non-finite tolerance fail before
	// integrating, not by returning the start state or integrating forever;
	// each call runs under a timeout so a hang fails the test.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		t    float64
		opts EvolveOptions
	}{
		{"t=NaN", nan, EvolveOptions{}},
		{"t=+Inf", inf, EvolveOptions{}},
		{"Tol=NaN", 1, EvolveOptions{Tol: nan}},
		{"Tol=+Inf", 1, EvolveOptions{Tol: inf}},
		{"Tol=-Inf", 1, EvolveOptions{Tol: -inf}},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := model.Evolve(nil, c.t, c.opts)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrInvalidModel) {
				t.Errorf("%s: err = %v, want ErrInvalidModel", c.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Evolve still running after 5 s", c.name)
		}
	}
	if _, err := model.MeanFitness(make([]float64, 3)); err == nil {
		t.Error("wrong state length must be rejected")
	}
}

func TestEvolveCustomStart(t *testing.T) {
	mut, _ := UniformMutation(6, 0.02)
	land, _ := SinglePeak(6, 2, 1)
	model, _ := New(mut, land)
	x0 := make([]float64, 64)
	for i := range x0 {
		x0[i] = 1.0 / 64 // start at the uniform distribution
	}
	tr, err := model.Evolve(x0, 30, EvolveOptions{Snapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d := vec.DistInf(tr.Final(), sol.Concentrations); d > 1e-6 {
		t.Errorf("uniform start converges to the same quasispecies; deviation %g", d)
	}
}

func TestResidualValidation(t *testing.T) {
	mut, _ := UniformMutation(6, 0.02)
	land, _ := SinglePeak(6, 2, 1)
	model, _ := New(mut, land)
	if _, err := model.Residual(1, make([]float64, 3)); err == nil {
		t.Error("wrong vector length must be rejected")
	}
	sol, _ := model.Solve()
	r, err := model.Residual(sol.Lambda, sol.Concentrations)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-9 {
		t.Errorf("residual of the solution %g", r)
	}
}

func TestKroneckerErrorPaths(t *testing.T) {
	fit := []float64{2, 1}
	if _, err := SolveKronecker([]KroneckerBlock{
		{ChainLen: 1, ErrorRate: 0.9, Fitness: fit},
	}); err == nil {
		t.Error("invalid block error rate must be rejected")
	}
	if _, err := SolveKronecker([]KroneckerBlock{
		{ChainLen: 1, ErrorRate: 0.01, Fitness: []float64{1, -1}},
	}); err == nil {
		t.Error("negative block fitness must be rejected")
	}
	if _, err := SolveKronecker([]KroneckerBlock{
		{ChainLen: 1, ErrorRate: 0.01, Fitness: fit},
	}, WithTolerance(-1)); err == nil {
		t.Error("invalid option must surface")
	}
	// ν > 62 total: implicit aggregates still work, per-sequence access fails.
	var blocks []KroneckerBlock
	for i := 0; i < 9; i++ {
		f := make([]float64, 1<<8)
		for j := range f {
			f[j] = 1
		}
		f[0] = 1.2
		blocks = append(blocks, KroneckerBlock{ChainLen: 8, ErrorRate: 0.001, Fitness: f})
	}
	sol, err := SolveKronecker(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ChainLen() != 72 {
		t.Fatalf("ν = %d", sol.ChainLen())
	}
	if _, err := sol.Concentration(5); err == nil {
		t.Error("per-sequence access beyond 62 bits must be refused")
	}
	if sol.MasterConcentration() <= 0 {
		t.Error("master concentration must remain available")
	}
	if len(sol.Gamma()) != 73 {
		t.Error("Γ must cover all 73 classes")
	}
}

func TestWorkersAuto(t *testing.T) {
	mut, _ := UniformMutation(8, 0.01)
	land, _ := RandomLandscape(8, 5, 1, 1)
	model, err := New(mut, land, WithMethod(MethodFmmp), WithWorkers(0)) // all cores
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Solve(); err != nil {
		t.Fatal(err)
	}
}
