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
// With -critical it benchmarks the adaptive critical-window engine: a sweep
// straddling p_c with auto gear selection, a parallel bit-identity
// cross-check, and the capped power baseline (see critical.go); -json
// additionally writes the result as a machine-readable baseline.
//
// Kernel, sweep and solve timings live in the bench/ module.
//
//	qs-solverbench -numin 10 -numax 22 -workers 0 > fig3.tsv
//	qs-solverbench -shift-study -nu 16
//	qs-solverbench -critical -nu 18 -points 13 -json results/BENCH_critical.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	quasispecies "repro"
	"repro/cmd/internal/cliobs"
	"repro/internal/device"
	"repro/internal/harness"
)

func main() {
	var (
		nuMin      = flag.Int("numin", 10, "smallest chain length")
		nuMax      = flag.Int("numax", 20, "largest chain length")
		p          = flag.Float64("p", 0.01, "error rate")
		c          = flag.Float64("c", 5, "random landscape c")
		sigma      = flag.Float64("sigma", 1, "random landscape σ")
		tolExact   = flag.Float64("tol", 1e-13, "residual tolerance for the exact methods (-critical: unset = floating-point floor)")
		tolApprox  = flag.Float64("tol-approx", 1e-10, "residual tolerance for Xmvp(5)")
		maxFull    = flag.Int("maxfull", 13, "largest ν measured for Pi(Xmvp(ν)) (larger are extrapolated)")
		maxSparse  = flag.Int("maxsparse", 20, "largest ν measured for Pi(Xmvp(5))")
		workers    = flag.Int("workers", 0, "device workers (0 = all cores, 1 = serial CPU)")
		seed       = flag.Uint64("seed", 1, "random landscape seed")
		shiftStudy = flag.Bool("shift-study", false, "run the shifted-vs-plain iteration comparison instead")
		nu         = flag.Int("nu", 16, "chain length for -shift-study")
		seeds      = flag.Int("seeds", 8, "number of random landscapes for -shift-study")
		jsonPath   = flag.String("json", "", "with -critical: also write the results as JSON to this file")
		points     = flag.Int("points", 16, "sweep points for -critical")
		sweepSigma = flag.Float64("sweep-sigma", 2, "single-peak superiority f0/f1 for -critical")
		critical   = flag.Bool("critical", false, "run the adaptive critical-window benchmark (sweep straddling p_c with auto gear selection, plus the capped power baseline) instead")
		fracMin    = flag.Float64("fracmin", 0.90, "lower grid edge for -critical, in units of p_c")
		fracMax    = flag.Float64("fracmax", 1.08, "upper grid edge for -critical, in units of p_c")
	)
	obsFlags := cliobs.Register(cliobs.Help{})
	flag.Parse()
	run, err := obsFlags.Start("qs-solverbench")
	exitOn(err)
	// -nu is the chain length of -critical and -shift-study only; Figure 3
	// spans -numin…-numax.
	flight := quasispecies.FlightOptions{Method: "fig3", Workers: *workers}
	switch {
	case *critical:
		flight.Method, flight.Nu = "critical", *nu
	case *shiftStudy:
		flight.Method, flight.Nu = "shift-study", *nu
	}
	run.StartFlight(flight)
	run.StartSpans()

	w := bufio.NewWriter(os.Stdout)
	bench := func() error {
		if *critical {
			// -workers here is the solve-level concurrency of the batch
			// engine, not device workers (0 = all cores). An unset -tol
			// selects the engine's floating-point floor default.
			tol := 0.0
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "tol" {
					tol = *tolExact
				}
			})
			return runCriticalBench(w, *nu, *points, *workers, *sweepSigma, *fracMin, *fracMax, tol, *jsonPath)
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
