// Command qs-solverbench regenerates Figure 3 of the paper: overall wall
// times for computing the dominant eigenvector of Q·F (random landscape of
// Eq. 13 with c = 5, σ = 1, p = 0.01) with the three power-iteration
// variants — Pi(Xmvp(ν)) at τ = 1e-15-equivalent accuracy, Pi(Xmvp(5)) at
// τ = 1e-10 (its attainable accuracy), and Pi(Fmmp), on a parallel device
// (the paper's GPU analogue) or serially with -workers 1.
//
// With -shift-study it instead reproduces the Section 3 claim that the
// conservative shift µ = (1−2p)^ν·f_min cuts the iteration count by about
// ten percent and more on random landscapes.
//
// With -kernels it runs the kernel-runtime ablation instead: blocked vs
// naive serial butterflies and pool vs spawn parallel dispatch on one Q·v
// product per ν (see kernels.go); -json additionally writes the table as a
// machine-readable baseline.
//
// With -sweep it benchmarks the batched sweep engine instead: one
// full-pipeline threshold sweep at -nu under serial/parallel × cold/warm
// scheduling, with a bit-identity cross-check (see sweep.go); -method
// changes the per-point eigensolver and the variant rows then tally points
// by the gear that solved them.
//
// With -critical it benchmarks the adaptive critical-window engine: a sweep
// straddling p_c with -method auto gear selection, a parallel bit-identity
// cross-check, and the capped power baseline (see critical.go).
//
//	qs-solverbench -numin 10 -numax 22 -workers 0 > fig3.tsv
//	qs-solverbench -shift-study -nu 16
//	qs-solverbench -kernels -numin 14 -numax 22 -json results/BENCH_kernels.json
//	qs-solverbench -sweep -nu 18 -points 16 -workers 4 -json results/BENCH_sweep.json
//	qs-solverbench -critical -nu 18 -points 13 -workers 4 -json results/BENCH_critical.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	quasispecies "repro"
	"repro/cmd/internal/cliobs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/mutation"
)

func main() {
	var (
		nuMin      = flag.Int("numin", 10, "smallest chain length")
		nuMax      = flag.Int("numax", 20, "largest chain length")
		p          = flag.Float64("p", 0.01, "error rate")
		c          = flag.Float64("c", 5, "random landscape c")
		sigma      = flag.Float64("sigma", 1, "random landscape σ")
		tolExact   = flag.Float64("tol", 1e-13, "residual tolerance for the exact methods")
		tolApprox  = flag.Float64("tol-approx", 1e-10, "residual tolerance for Xmvp(5)")
		maxFull    = flag.Int("maxfull", 13, "largest ν measured for Pi(Xmvp(ν)) (larger are extrapolated)")
		maxSparse  = flag.Int("maxsparse", 20, "largest ν measured for Pi(Xmvp(5))")
		workers    = flag.Int("workers", 0, "device workers (0 = all cores, 1 = serial CPU)")
		seed       = flag.Uint64("seed", 1, "random landscape seed")
		shiftStudy = flag.Bool("shift-study", false, "run the shifted-vs-plain iteration comparison instead")
		nu         = flag.Int("nu", 16, "chain length for -shift-study")
		seeds      = flag.Int("seeds", 8, "number of random landscapes for -shift-study")
		kernels    = flag.Bool("kernels", false, "run the kernel ablation (blocked vs naive, pool vs spawn) instead")
		tile       = flag.Int("tile", 0, "log2 of the kernel tile size in float64 elements (0 = default)")
		reps       = flag.Int("reps", 5, "repetitions per measurement for -kernels (best-of)")
		jsonPath   = flag.String("json", "", "with -kernels or -sweep: also write the results as JSON to this file")
		sweep      = flag.Bool("sweep", false, "run the batched sweep benchmark (serial/parallel × cold/warm threshold sweep) instead")
		points     = flag.Int("points", 16, "sweep points for -sweep and -critical")
		sweepSigma = flag.Float64("sweep-sigma", 2, "single-peak superiority f0/f1 for -sweep and -critical")
		method     = flag.String("method", "", "per-point eigensolver for -sweep: power (default) | auto | chebyshev | shiftinvert | lanczos")
		critical   = flag.Bool("critical", false, "run the adaptive critical-window benchmark (sweep straddling p_c with -method auto, plus the capped power baseline) instead")
		fracMin    = flag.Float64("fracmin", 0.90, "lower grid edge for -critical, in units of p_c")
		fracMax    = flag.Float64("fracmax", 1.08, "upper grid edge for -critical, in units of p_c")
	)
	obsFlags := cliobs.Register(cliobs.Help{})
	flag.Parse()
	if *tile > 0 {
		mutation.SetTileBits(*tile)
	}
	run, err := obsFlags.Start("qs-solverbench")
	exitOn(err)
	mode := "fig3"
	switch {
	case *kernels:
		mode = "kernels"
	case *critical:
		mode = "critical"
	case *sweep:
		mode = "sweep"
	case *shiftStudy:
		mode = "shift-study"
	}
	run.StartFlight(quasispecies.FlightOptions{Nu: *nu, Method: mode, Workers: *workers})
	run.StartSpans()

	w := bufio.NewWriter(os.Stdout)
	bench := func() error {
		if *kernels {
			if *nuMin < 1 || *nuMax < *nuMin || *nuMax > 28 {
				return fmt.Errorf("invalid ν range [%d, %d]", *nuMin, *nuMax)
			}
			return runKernelBench(w, *nuMin, *nuMax, *workers, *reps, *p, *jsonPath)
		}

		if *sweep || *critical {
			// -workers here is the solve-level concurrency of the batch
			// engine, not device workers; -tol 0 selects the floating-point
			// floor default. Sweep-point grid straddles the error threshold.
			sweepWorkers := *workers
			if sweepWorkers == 0 {
				sweepWorkers = 4
			}
			tol := *tolExact
			if tol == 1e-13 { // flag default: let the engine pick the floor
				tol = 0
			}
			if *critical {
				return runCriticalBench(w, *nu, *points, sweepWorkers, *sweepSigma, *fracMin, *fracMax, tol, *jsonPath)
			}
			solveMethod, err := core.ParseSolveMethod(*method)
			if err != nil {
				return err
			}
			return runSweepBench(w, *nu, *points, sweepWorkers, *sweepSigma, tol, solveMethod, *jsonPath)
		}

		if *shiftStudy {
			seedList := make([]uint64, *seeds)
			for i := range seedList {
				seedList[i] = *seed + uint64(i)
			}
			pts, err := harness.ShiftStudy(*nu, *p, *tolExact, seedList)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "# Section 3 shift study: power-iteration counts with and without µ = (1−2p)^ν·f_min")
			fmt.Fprintln(w, "seed\titer_plain\titer_shifted\treduction_pct\tlambda_matches")
			totP, totS := 0, 0
			for _, pt := range pts {
				fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\t%v\n", pt.Seed, pt.IterPlain, pt.IterShifted, pt.ReductionPct, pt.LambdaMatches)
				totP += pt.IterPlain
				totS += pt.IterShifted
			}
			fmt.Fprintf(w, "# overall reduction: %.2f%%\n", 100*(1-float64(totS)/float64(totP)))
			return nil
		}

		if *nuMin < 1 || *nuMax < *nuMin || *nuMax > 28 {
			return fmt.Errorf("invalid ν range [%d, %d]", *nuMin, *nuMax)
		}
		var nus []int
		for n := *nuMin; n <= *nuMax; n++ {
			nus = append(nus, n)
		}
		var dev *device.Device
		if *workers != 1 {
			dev = device.New(*workers)
		}
		series, err := harness.SolverRuntimes(harness.SolverConfig{
			Nus: nus, P: *p, C: *c, Sig: *sigma,
			TolExact: *tolExact, TolApprox: *tolApprox,
			MaxFull: *maxFull, MaxSparse: *maxSparse,
			Dev: dev, Seed: *seed,
		})
		if err != nil {
			return err
		}
		hw := "serial (CPU analogue)"
		if dev != nil {
			hw = dev.String() + " (GPU analogue)"
		}
		fmt.Fprintf(w, "# Figure 3: overall power-iteration wall times [s] on %s\n", hw)
		fmt.Fprintln(w, "# random landscape Eq. 13 (c, σ) as flagged; '*' marks extrapolated values")
		return harness.WriteSeriesTSV(w, series)
	}
	err = bench()
	w.Flush()
	run.Finish(err)
	exitOn(err)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qs-solverbench:", err)
		os.Exit(1)
	}
}
