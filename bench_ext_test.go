package quasispecies_test

// Benchmarks for the systems built along the paper's outlook (DESIGN.md
// rows 15–22): distributed solving, the four-letter alphabet,
// multi-resolution analysis and checkpoint I/O.

import (
	"bytes"
	"fmt"
	"testing"

	quasispecies "repro"
	"repro/cluster"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/resolution"
	"repro/rna"
)

// BenchmarkClusterSolve runs core's power iteration on the cluster
// operator across node counts; the traffic counters scale as 8·N·log₂P
// per matvec.
func BenchmarkClusterSolve(b *testing.B) {
	const nu = 12
	l, err := landscape.NewRandom(nu, 5, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, nodes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("nodes%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := cluster.NewCluster(nodes, 0.01, l)
				if err != nil {
					b.Fatal(err)
				}
				opts := core.PowerOptions{Tol: 1e-11, Start: core.FitnessStart(l)}
				if _, err := core.PowerIteration(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRNASolve solves a four-letter model: full grouped transform
// (Kimura) vs the exact class reduction (Jukes–Cantor).
func BenchmarkRNASolve(b *testing.B) {
	const l = 7 // 4^7 = 16384 states
	land, err := rna.SinglePeakLandscape(l, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kimura-full", func(b *testing.B) {
		k2, _ := rna.Kimura(0.015, 0.005)
		m, err := rna.New(l, k2, land)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := m.Solve(rna.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jukescantor-reduced", func(b *testing.B) {
		phi := make([]float64, l+1)
		phi[0] = 2
		for k := 1; k <= l; k++ {
			phi[k] = 1
		}
		for i := 0; i < b.N; i++ {
			if _, err := rna.SolveReduced(l, 0.02, phi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jukescantor-reduced-L300", func(b *testing.B) {
		phi := make([]float64, 301)
		phi[0] = 2
		for k := 1; k <= 300; k++ {
			phi[k] = 1
		}
		for i := 0; i < b.N; i++ {
			if _, err := rna.SolveReduced(300, 0.001, phi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWalshMoments measures the one-transform marginal/linkage
// analysis against direct accumulation.
func BenchmarkWalshMoments(b *testing.B) {
	const nu = 16
	mut, _ := quasispecies.UniformMutation(nu, 0.01)
	land, _ := quasispecies.SinglePeak(nu, 2, 1)
	model, _ := quasispecies.New(mut, land, quasispecies.WithMethod(quasispecies.MethodFmmp))
	sol, err := model.Solve()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("walsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := resolution.WalshMoments(sol.Concentrations); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-marginals", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := resolution.Marginals(sol.Concentrations); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointIO measures serialization of a 2^18-entry solution.
func BenchmarkCheckpointIO(b *testing.B) {
	mut, _ := quasispecies.UniformMutation(18, 0.01)
	land, _ := quasispecies.SinglePeak(18, 2, 1)
	model, _ := quasispecies.New(mut, land)
	sol, err := model.Solve()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sol.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := sol.Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := quasispecies.ReadSolution(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(int64(len(raw)))
}

// BenchmarkThresholdLocate bisects p_max for the ν = 20 single peak.
func BenchmarkThresholdLocate(b *testing.B) {
	land, _ := quasispecies.SinglePeak(20, 2, 1)
	for i := 0; i < b.N; i++ {
		if _, err := quasispecies.LocateErrorThreshold(land, 0.005, 0.08, 1e-5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectralGap estimates λ₀ and λ₁ with the gap probe the
// adaptive selector runs: 24 Lanczos steps from the fixed start, reusing
// one Krylov workspace.
func BenchmarkSpectralGap(b *testing.B) {
	const nu = 12
	q := mutation.MustUniform(nu, 0.02)
	l, err := landscape.NewRandom(nu, 5, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	op, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
	if err != nil {
		b.Fatal(err)
	}
	work := core.NewKrylovWork(op.Dim())
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RitzGap(op, 24, nil, work); err != nil {
			b.Fatal(err)
		}
	}
}
