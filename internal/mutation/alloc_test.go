package mutation

import (
	"testing"

	"repro/internal/dense"
	"repro/internal/rng"
	"repro/internal/vec"
)

// Allocation regression guards: the hot kernels of the solver must not
// allocate. "There is no need to store any element of the matrix" is the
// paper's headline property — a per-apply allocation would silently erode
// it at scale.

// TestFmmpApplyDoesNotAllocate: Apply allocates nothing at any kernel tier
// (the assembly bodies are go:noescape), nor do its two oracles.
func TestFmmpApplyDoesNotAllocate(t *testing.T) {
	q := MustUniform(12, 0.01)
	v := make([]float64, q.Dim())
	vec.Fill(v, 1)
	for _, tier := range kernelTiers(t) {
		vec.SetTier(tier)
		if allocs := testing.AllocsPerRun(10, func() { q.Apply(v) }); allocs != 0 {
			t.Errorf("tier=%v: Fmmp Apply allocates %.0f objects per call", tier, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyNaive(v) }); allocs != 0 {
		t.Errorf("ApplyNaive allocates %.0f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyDescending(v) }); allocs != 0 {
		t.Errorf("ApplyDescending allocates %.0f objects per call", allocs)
	}
}

func TestGroupedApplyDoesNotAllocate(t *testing.T) {
	// The grouped-factor path gathers each group through Process-owned
	// scratch; a per-apply allocation here would run nBases times per group
	// per matvec.
	r := rng.New(41)
	q, err := NewGrouped([]*dense.Matrix{
		randStochasticMatrix(r, 2),
		randStochasticMatrix(r, 8),
		randStochasticMatrix(r, 4),
		randStochasticMatrix(r, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, q.Dim())
	vec.Fill(v, 1)
	if allocs := testing.AllocsPerRun(10, func() { q.Apply(v) }); allocs != 0 {
		t.Errorf("grouped Apply allocates %.0f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyNaive(v) }); allocs != 0 {
		t.Errorf("grouped ApplyNaive allocates %.0f objects per call", allocs)
	}
}

func TestBlockedApplySmallTilesDoNotAllocate(t *testing.T) {
	q := MustUniform(12, 0.01)
	v := make([]float64, q.Dim())
	vec.Fill(v, 1)
	for _, tb := range []int{1, 4, 20} {
		if allocs := testing.AllocsPerRun(10, func() { q.apply(v, nil, nil, tb, nil) }); allocs != 0 {
			t.Errorf("tileBits=%d: blocked Apply allocates %.0f objects per call", tb, allocs)
		}
	}
}

func TestFWHTDoesNotAllocate(t *testing.T) {
	v := make([]float64, 1<<12)
	vec.Fill(v, 1)
	if allocs := testing.AllocsPerRun(10, func() { FWHT(v) }); allocs != 0 {
		t.Errorf("FWHT allocates %.0f objects per call", allocs)
	}
}

func TestXmvpApplyDoesNotAllocate(t *testing.T) {
	x := mustXmvp(12, 0.01, 3)
	src := make([]float64, x.Dim())
	dst := make([]float64, x.Dim())
	vec.Fill(src, 1)
	if allocs := testing.AllocsPerRun(5, func() { x.Apply(dst, src) }); allocs != 0 {
		t.Errorf("Xmvp Apply allocates %.0f objects per call", allocs)
	}
}

func TestApplyShiftInvertDoesNotAllocate(t *testing.T) {
	q := MustUniform(10, 0.01)
	v := make([]float64, q.Dim())
	vec.Fill(v, 1)
	mu := 0.5 // between the eigenvalue clusters; never equals (1−2p)^k here
	if allocs := testing.AllocsPerRun(10, func() {
		if err := q.ApplyShiftInvert(v, mu); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ApplyShiftInvert allocates %.0f objects per call", allocs)
	}
}
