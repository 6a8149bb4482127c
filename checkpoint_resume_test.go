package quasispecies

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestCheckpointResumeBitIdentical is the resume-after-interrupt check: a
// sweep interrupted after point p₁ and resumed from its checkpoint file
// must produce exactly the solution the uninterrupted warm continuation
// would have — the checkpoint is binary float64, so WithStart from the
// loaded concentrations and WithStart from the in-memory ones are the
// same start vector bit for bit.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const nu = 10
	l, err := SinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	solveAt := func(p float64, opts ...Option) *Solution {
		t.Helper()
		mut, err := UniformMutation(nu, p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(mut, l, append([]Option{WithMethod(MethodFmmp)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}

	// Point p₁, then "interrupt": checkpoint to disk.
	sol1 := solveAt(0.010)
	path := filepath.Join(t.TempDir(), "p1.qs")
	if err := sol1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSolutionFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The checkpoint must be lossless: same start vector bit for bit.
	if len(loaded.Concentrations) != len(sol1.Concentrations) {
		t.Fatalf("checkpoint lost concentrations: %d vs %d",
			len(loaded.Concentrations), len(sol1.Concentrations))
	}
	for i := range sol1.Concentrations {
		if loaded.Concentrations[i] != sol1.Concentrations[i] {
			t.Fatalf("checkpoint concentration %d drifted: %g vs %g",
				i, loaded.Concentrations[i], sol1.Concentrations[i])
		}
	}

	// Point p₂ both ways: resumed from the file vs continued in memory.
	resumed := solveAt(0.012, WithStart(loaded.Concentrations))
	continued := solveAt(0.012, WithStart(sol1.Concentrations))

	if resumed.Lambda != continued.Lambda {
		t.Fatalf("resumed λ %.17g != continued λ %.17g", resumed.Lambda, continued.Lambda)
	}
	if resumed.Iterations != continued.Iterations || resumed.Residual != continued.Residual {
		t.Fatalf("resumed (iters=%d, res=%g) != continued (iters=%d, res=%g)",
			resumed.Iterations, resumed.Residual, continued.Iterations, continued.Residual)
	}
	for i := range continued.Concentrations {
		if resumed.Concentrations[i] != continued.Concentrations[i] {
			t.Fatalf("concentration %d differs after resume: %g vs %g",
				i, resumed.Concentrations[i], continued.Concentrations[i])
		}
	}

	// The warm start must actually continue rather than restart: fewer
	// iterations than the cold solve of the same point. The cold solve is
	// pinned to the paper's fitness start: on this class landscape the
	// facade's default class-projected start is already the eigenvector.
	cold := solveAt(0.012, WithStart(core.FitnessStart(l.l)))
	if resumed.Iterations >= cold.Iterations {
		t.Fatalf("warm resume took %d iterations, cold solve %d — start vector ignored",
			resumed.Iterations, cold.Iterations)
	}
	if resumed.Lambda == 0 || cold.Lambda == 0 {
		t.Fatal("degenerate solve in fixture")
	}
}

// TestWithStartValidation: bad start vectors are rejected at the right
// layer with the right error.
func TestWithStartValidation(t *testing.T) {
	l, err := SinglePeak(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mut, err := UniformMutation(8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mut, l, WithStart(nil)); err == nil {
		t.Fatal("WithStart(nil) accepted")
	}
	m, err := New(mut, l, WithMethod(MethodFmmp), WithStart(make([]float64, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(); err == nil {
		t.Fatal("length-mismatched start vector accepted at solve time")
	}
}
