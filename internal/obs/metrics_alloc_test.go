//go:build !race

package obs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/span"
	"repro/internal/vec"
)

// TestSolverMetricsDoNotAllocate pins the cost contract of the qs_*
// subscriber: with metrics enabled and no profile recording, an operator
// application and a power solve with PowerWork supplied allocate nothing —
// timed spans borrow pooled handles. (Excluded from -race builds, where
// sync.Pool drops a share of its Puts on purpose.)
func TestSolverMetricsDoNotAllocate(t *testing.T) {
	EnableSolverMetrics()
	if p := InstalledProfiler(); p != nil {
		p.Stop()
	}
	if !span.Enabled() {
		t.Fatal("metrics enabled but no span recorder installed")
	}

	const nu = 10
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(mutation.MustUniform(nu, 0.01), l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := op.Dim()
	dst := make([]float64, n)
	src := make([]float64, n)
	vec.Fill(src, 1)
	if allocs := testing.AllocsPerRun(10, func() { op.Apply(dst, src) }); allocs != 0 {
		t.Errorf("FmmpOperator.Apply allocates %.0f objects per call with metrics enabled", allocs)
	}

	opts := core.PowerOptions{Tol: 1e-10, Work: core.NewPowerWork(n), Start: src}
	if _, err := core.PowerIteration(op, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.PowerIteration(op, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PowerIteration allocates %.0f objects per solve with metrics enabled", allocs)
	}
}
