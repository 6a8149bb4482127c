package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/rng"
)

// Property-based cross-validation: for random problem sizes, error rates,
// landscapes and node counts, the power solve on the cluster must be the
// shared-memory solve bit for bit.

func TestSolveMatchesSerialProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 4 + int(r.Uint64n(5)) // ν ∈ [4, 8]
		p := 0.002 + 0.05*r.Float64()
		nodes := 1 << r.Uint64n(4) // P ∈ {1, 2, 4, 8}
		l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
		if err != nil {
			return false
		}
		opts := core.PowerOptions{Tol: 1e-11, Start: core.FitnessStart(l)}
		ref, err := core.PowerIteration(serialOperator(t, p, l), opts)
		if err != nil {
			return false
		}
		c, err := NewCluster(nodes, p, l)
		if err != nil {
			return false
		}
		res, err := core.PowerIteration(c, opts)
		if err != nil {
			return false
		}
		return samePower(res, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
