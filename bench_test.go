package quasispecies_test

// One benchmark per figure of the paper, plus ablations for the design
// choices called out in DESIGN.md. The figure-scale runs (up to ν = 25)
// live in the cmd/qs-* tools, which print the full TSV series; these
// benchmarks pin the same code paths at sizes that complete in seconds so
// `go test -bench=.` exercises every experiment end to end.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	quasispecies "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/ode"
	"repro/internal/vec"
)

// ---------------------------------------------------------------------------
// Figure 1: error-threshold sweeps (single-peak and linear landscapes)

func benchThreshold(b *testing.B, kind string) {
	var land quasispecies.Landscape
	var err error
	switch kind {
	case "singlepeak":
		land, err = quasispecies.SinglePeak(20, 2, 1)
	case "linear":
		land, err = quasispecies.LinearLandscape(20, 2, 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	ps := []float64{0.005, 0.02, 0.035, 0.05, 0.08}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quasispecies.ThresholdCurve(land, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1SinglePeak regenerates the left panel of Figure 1 (ν = 20,
// f₀ = 2, fᵢ = 1): five representative error rates per iteration.
func BenchmarkFig1SinglePeak(b *testing.B) { benchThreshold(b, "singlepeak") }

// BenchmarkFig1Linear regenerates the right panel of Figure 1 (linear
// landscape, ν = 20).
func BenchmarkFig1Linear(b *testing.B) { benchThreshold(b, "linear") }

// ---------------------------------------------------------------------------
// Figure 2: one matrix–vector product per method

func fig2Setup(b *testing.B, nu int) (landscape.Landscape, []float64, []float64) {
	b.Helper()
	l, err := landscape.NewRandom(nu, 5, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := core.FitnessStart(l)
	dst := make([]float64, l.Dim())
	return l, x, dst
}

// BenchmarkFig2Smvp is the Θ(N²) reference product Xmvp(ν) ≡ Smvp.
func BenchmarkFig2Smvp(b *testing.B) {
	for _, nu := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("nu%d", nu), func(b *testing.B) {
			l, x, dst := fig2Setup(b, nu)
			xm := mutation.MustXmvp(nu, 0.01, nu)
			op, err := core.NewXmvpOperator(xm, l, core.Right, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(dst, x)
			}
		})
	}
}

// BenchmarkFig2Xmvp1 is the coarsest sparsification, Θ(N·(ν+1)).
func BenchmarkFig2Xmvp1(b *testing.B) {
	for _, nu := range []int{12, 16, 20} {
		b.Run(fmt.Sprintf("nu%d", nu), func(b *testing.B) {
			l, x, dst := fig2Setup(b, nu)
			xm := mutation.MustXmvp(nu, 0.01, 1)
			op, err := core.NewXmvpOperator(xm, l, core.Right, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(dst, x)
			}
		})
	}
}

// BenchmarkFig2Fmmp is the paper's exact Θ(N·log₂N) product.
func BenchmarkFig2Fmmp(b *testing.B) {
	for _, nu := range []int{12, 16, 20} {
		b.Run(fmt.Sprintf("nu%d", nu), func(b *testing.B) {
			l, x, dst := fig2Setup(b, nu)
			q := mutation.MustUniform(nu, 0.01)
			op, err := core.NewFmmpOperator(q, l, core.Right, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(dst, x)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 3: full power-iteration solves per method

func fig3Solve(b *testing.B, op core.Operator, l landscape.Landscape, tol float64) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PowerIteration(op, core.PowerOptions{
			Tol: tol, Start: core.FitnessStart(l),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PiXmvpFull solves with the Θ(N²) reference product.
func BenchmarkFig3PiXmvpFull(b *testing.B) {
	const nu = 10
	l, _ := landscape.NewRandom(nu, 5, 1, 1)
	xm := mutation.MustXmvp(nu, 0.01, nu)
	op, err := core.NewXmvpOperator(xm, l, core.Right, nil)
	if err != nil {
		b.Fatal(err)
	}
	fig3Solve(b, op, l, 1e-13)
}

// BenchmarkFig3PiXmvp5 solves with the paper's ≈1e-10-accurate truncation.
func BenchmarkFig3PiXmvp5(b *testing.B) {
	const nu = 14
	l, _ := landscape.NewRandom(nu, 5, 1, 1)
	xm := mutation.MustXmvp(nu, 0.01, 5)
	op, err := core.NewXmvpOperator(xm, l, core.Right, nil)
	if err != nil {
		b.Fatal(err)
	}
	fig3Solve(b, op, l, 1e-10)
}

// BenchmarkFig3PiFmmp solves with the fast exact product — the paper's
// headline configuration.
func BenchmarkFig3PiFmmp(b *testing.B) {
	for _, nu := range []int{14, 18} {
		b.Run(fmt.Sprintf("nu%d", nu), func(b *testing.B) {
			l, _ := landscape.NewRandom(nu, 5, 1, 1)
			q := mutation.MustUniform(nu, 0.01)
			op, err := core.NewFmmpOperator(q, l, core.Right, nil)
			if err != nil {
				b.Fatal(err)
			}
			fig3Solve(b, op, l, 1e-13)
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 4: algorithm × hardware — serial vs parallel device Pi(Fmmp)

// BenchmarkFig4DevicePiFmmp runs the full solve on the parallel kernel
// runtime (the GPU analogue); compare against BenchmarkFig3PiFmmp for the
// hardware offset of Figure 4. On a single-core host the two coincide.
func BenchmarkFig4DevicePiFmmp(b *testing.B) {
	const nu = 18
	l, _ := landscape.NewRandom(nu, 5, 1, 1)
	q := mutation.MustUniform(nu, 0.01)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			dev := device.New(workers)
			op, err := core.NewFmmpOperator(q, l, core.Right, dev)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.PowerIteration(op, core.PowerOptions{
					Tol: 1e-13, Start: core.FitnessStart(l), Dev: dev,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4SpeedupPipeline exercises the end-to-end Figure 4
// derivation (measure, extrapolate, tabulate) at reduced scale.
func BenchmarkFig4SpeedupPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.SolverRuntimes(harness.SolverConfig{
			Nus: []int{8, 10, 12}, MaxFull: 10, TolExact: 1e-11, TolApprox: 1e-9, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		harness.Speedups(series[0], series[1:])
	}
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)

// BenchmarkAblationStageOrder compares the two mathematically equivalent
// butterfly orderings (Eq. 9 ascending vs Eq. 10 descending strides).
func BenchmarkAblationStageOrder(b *testing.B) {
	const nu = 20
	q := mutation.MustUniform(nu, 0.01)
	v := make([]float64, q.Dim())
	for i := range v {
		v[i] = 1
	}
	b.Run("eq9-ascending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Apply(v)
		}
	})
	b.Run("eq10-descending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.ApplyDescending(v)
		}
	})
}

// BenchmarkAblationShift measures the Section 3 convergence shift.
func BenchmarkAblationShift(b *testing.B) {
	const nu = 14
	l, _ := landscape.NewRandom(nu, 5, 1, 1)
	q := mutation.MustUniform(nu, 0.01)
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, shifted := range []bool{false, true} {
		name := "off"
		mu := 0.0
		if shifted {
			name = "on"
			mu = core.ConservativeShift(q, l)
		}
		b.Run("shift-"+name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.PowerIteration(op, core.PowerOptions{
					Tol: 1e-12, Start: core.FitnessStart(l), Shift: mu,
				})
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkAblationStartVector compares the paper's diag(F)/‖·‖₁ start
// against the naive uniform start.
func BenchmarkAblationStartVector(b *testing.B) {
	const nu = 14
	l, _ := landscape.NewRandom(nu, 5, 1, 1)
	q := mutation.MustUniform(nu, 0.01)
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		b.Fatal(err)
	}
	uniform := make([]float64, q.Dim())
	vec.Fill(uniform, 1.0/float64(q.Dim()))
	for _, cfg := range []struct {
		name  string
		start []float64
	}{{"fitness-start", core.FitnessStart(l)}, {"uniform-start", uniform}} {
		b.Run(cfg.name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.PowerIteration(op, core.PowerOptions{
					Tol: 1e-12, Start: cfg.start,
				})
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkAblationLanczosVsPower compares the two eigensolvers near the
// error threshold, where the spectral gap closes.
func BenchmarkAblationLanczosVsPower(b *testing.B) {
	const nu = 12
	l, _ := landscape.NewSinglePeak(nu, 2, 1)
	q := mutation.MustUniform(nu, 0.04)
	op, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("power", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PowerIteration(op, core.PowerOptions{
				Tol: 1e-11, Start: core.FitnessStart(l),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanczos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Lanczos(op, core.LanczosOptions{
				Tol: 1e-11, Start: core.FitnessStart(l),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationReducedVsFull quantifies the Section 5.1 reduction:
// identical answers, (ν+1)² vs N·log₂N-per-iteration cost.
func BenchmarkAblationReducedVsFull(b *testing.B) {
	const nu = 16
	mut, _ := quasispecies.UniformMutation(nu, 0.01)
	land, _ := quasispecies.SinglePeak(nu, 2, 1)
	for _, m := range []quasispecies.Method{quasispecies.MethodReduced, quasispecies.MethodFmmp} {
		model, err := quasispecies.New(mut, land, quasispecies.WithMethod(m))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShiftInvertQ measures the Θ(N·log₂N) shift-and-invert
// product of Section 3 against a plain Fmmp product (its building block
// cost: two FWHTs vs one butterfly pass).
func BenchmarkAblationShiftInvertQ(b *testing.B) {
	const nu = 18
	q := mutation.MustUniform(nu, 0.01)
	v := make([]float64, q.Dim())
	for i := range v {
		v[i] = 1
	}
	b.Run("fmmp-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Apply(v)
		}
	})
	b.Run("shift-invert-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := q.ApplyShiftInvert(v, -0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Kernel ablations: cache-blocked vs naive butterflies

// BenchmarkKernelFmmpBlockedVsNaive compares the production cache-blocked
// stage-fused butterfly kernel against the literal one-pass-per-stage loop
// of Algorithm 1 at figure scales. The two are bit-identical in output; the
// difference is purely memory traffic (no stage streams the vector at a
// stride larger than the tile).
func BenchmarkKernelFmmpBlockedVsNaive(b *testing.B) {
	for _, nu := range []int{16, 20, 22} {
		q := mutation.MustUniform(nu, 0.01)
		v := make([]float64, q.Dim())
		vec.Fill(v, 1)
		b.Run(fmt.Sprintf("naive/nu%d", nu), func(b *testing.B) {
			b.SetBytes(int64(8 * q.Dim()))
			for i := 0; i < b.N; i++ {
				q.ApplyNaive(v)
			}
		})
		b.Run(fmt.Sprintf("blocked/nu%d", nu), func(b *testing.B) {
			b.SetBytes(int64(8 * q.Dim()))
			for i := 0; i < b.N; i++ {
				q.Apply(v)
			}
		})
	}
}

// BenchmarkKernelFWHTBlockedVsNaive is the same comparison for the
// Walsh–Hadamard transform backing the shift-invert product.
func BenchmarkKernelFWHTBlockedVsNaive(b *testing.B) {
	for _, nu := range []int{16, 20, 22} {
		v := make([]float64, 1<<uint(nu))
		vec.Fill(v, 1)
		b.Run(fmt.Sprintf("naive/nu%d", nu), func(b *testing.B) {
			b.SetBytes(int64(8 * len(v)))
			for i := 0; i < b.N; i++ {
				mutation.FWHTNaive(v)
			}
		})
		b.Run(fmt.Sprintf("blocked/nu%d", nu), func(b *testing.B) {
			b.SetBytes(int64(8 * len(v)))
			for i := 0; i < b.N; i++ {
				mutation.FWHT(v)
			}
		})
	}
}

// BenchmarkODEStep measures one RK4 step of the replicator–mutator system
// (Eq. 1) on the fast operator.
func BenchmarkODEStep(b *testing.B) {
	const nu = 16
	l, _ := landscape.NewRandom(nu, 5, 1, 1)
	q := mutation.MustUniform(nu, 0.01)
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ode.NewSystem(op, l)
	if err != nil {
		b.Fatal(err)
	}
	x := ode.MasterStart(sys.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.IntegrateRK4(x, 0, 1e-3, 1, ode.RK4Options{Renormalize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKroneckerNu100 solves the paper's ν = 100 flagship problem
// (five 20-bit blocks) end to end.
func BenchmarkKroneckerNu100(b *testing.B) {
	factor := make([]float64, 1<<20)
	for i := range factor {
		factor[i] = 1
	}
	factor[0] = 1.15
	blocks := make([]quasispecies.KroneckerBlock, 5)
	for i := range blocks {
		blocks[i] = quasispecies.KroneckerBlock{ChainLen: 20, ErrorRate: 0.002, Fitness: factor}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := quasispecies.SolveKronecker(blocks, quasispecies.WithTolerance(1e-11))
		if err != nil {
			b.Fatal(err)
		}
		sol.Gamma()
	}
}
