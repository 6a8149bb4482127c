// Command qs-threshold regenerates Figure 1 of the paper: the cumulative
// error-class concentrations [Γ0] … [Γν] as functions of the error rate p,
// for the single-peak landscape (left panel: sharp error threshold at
// p_max ≈ 0.035 for ν = 20, f₀/f₁ = 2) and the linear landscape (right
// panel: smooth transition, no threshold).
//
// Output is TSV: one row per p, one column per error class — directly
// plottable.
//
//	qs-threshold -landscape singlepeak -nu 20 > fig1_left.tsv
//	qs-threshold -landscape linear     -nu 20 > fig1_right.tsv
//
// By default each point is solved with the exact (ν+1)×(ν+1) class
// reduction; -full switches to full 2^ν Pi(Fmmp) solves, the mode that
// exercises the instrumented solver core and supports -trace convergence
// dumps and a span profile that -debug-addr serves live:
//
//	qs-threshold -full -nu 14 -steps 24 -warm -trace trace.tsv -spans -debug-addr 127.0.0.1:9190
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	quasispecies "repro"
	"repro/cmd/internal/cliobs"
	"repro/internal/obs"
)

func main() {
	var (
		nu      = flag.Int("nu", 20, "chain length ν")
		land    = flag.String("landscape", "singlepeak", "singlepeak | linear")
		f0      = flag.Float64("f0", 2, "master fitness f₀")
		f1      = flag.Float64("f1", 1, "base / distance-ν fitness")
		pMin    = flag.Float64("pmin", 0.0005, "smallest error rate")
		pMax    = flag.Float64("pmax", 0.09, "largest error rate")
		steps   = flag.Int("steps", 180, "number of p samples")
		locate  = flag.Bool("locate", false, "bisect and print the error threshold p_max instead of sweeping")
		workers = flag.Int("workers", 1, "concurrent eigensolves (0/1 serial, -1 all cores); results are bit-identical at any count")
		warm    = flag.Bool("warm", false, "warm-start each solve from the previous error rates' solutions (with -full, extrapolated through up to four, order by fit)")
		full    = flag.Bool("full", false, "solve the full 2^ν eigenproblem per point instead of the exact class reduction")
		method  = flag.String("method", "power", "per-point eigensolver gear of -full sweeps: power | auto | chebyshev | shiftinvert (auto adapts per point: power far from the threshold, Krylov gears inside the critical window); the class reduction has one solver, dense power, whatever the method")

		traceFile  = flag.String("trace", "", "write per-point convergence traces to this file (.tsv or .jsonl; requires -full)")
		traceEvery = flag.Int("trace-every", 1, "keep every Nth residual check per point in the trace")
		progress   = flag.Bool("progress", false, "print one line per solved point to stderr")
	)
	obsFlags := cliobs.Register(cliobs.Help{
		Spans:  "profile the sweep with hierarchical spans and print the per-phase time table (requires -full)",
		Flight: "flight-record the sweep: manifest, black-box rings, a diagnostic bundle when the solver fails (requires -full)",
	})
	flag.Parse()

	run, err := obsFlags.Start("qs-threshold")
	exitOn(err)
	if obsFlags.Profiling() && !*full {
		exitOn(fmt.Errorf("-spans profiles the full-space solver; add -full (the class reduction has no instrumented phases)"))
	}
	if *traceFile != "" && !*full {
		exitOn(fmt.Errorf("-trace records full-space convergence traces; add -full (the class reduction's dense solve records no convergence trace)"))
	}
	if obsFlags.Flight && !*full {
		exitOn(fmt.Errorf("-flight records the full-space solver; add -full (the class reduction's dense solve has no trace or spans to bundle)"))
	}

	var l quasispecies.Landscape
	switch *land {
	case "singlepeak":
		l, err = quasispecies.SinglePeak(*nu, *f0, *f1)
	case "linear":
		l, err = quasispecies.LinearLandscape(*nu, *f0, *f1)
	default:
		err = fmt.Errorf("unknown landscape %q", *land)
	}
	exitOn(err)

	if *steps < 2 || *pMax <= *pMin || *pMin <= 0 || *pMax > 0.5 {
		exitOn(fmt.Errorf("invalid sweep range [%g, %g] with %d steps", *pMin, *pMax, *steps))
	}
	ps := make([]float64, *steps)
	for i := range ps {
		ps[i] = *pMin + (*pMax-*pMin)*float64(i)/float64(*steps-1)
	}
	if *locate {
		located, err := quasispecies.LocateErrorThresholdWith(l, *pMin, *pMax, 1e-6,
			quasispecies.SweepOptions{Workers: *workers, Method: *method})
		exitOn(err)
		fmt.Printf("located p_max = %.6f\n", located)
		if *land == "singlepeak" && *f0 > *f1 {
			theory, err := quasispecies.TheoreticalErrorThreshold(*f0 / *f1, *nu)
			exitOn(err)
			fmt.Printf("first-order theory 1 - sigma^(-1/nu) = %.6f\n", theory)
		}
		run.Finish(nil)
		return
	}

	fl := run.StartFlight(quasispecies.FlightOptions{
		Nu: *nu, Method: *method, Workers: *workers, PGrid: ps,
	})

	opts := quasispecies.SweepOptions{Workers: *workers, WarmStart: *warm, Method: *method}
	if *progress || fl != nil {
		pr := *progress
		opts.Progress = func(i int, p float64, iters int, warmStarted bool, solveMethod string) {
			if fl != nil {
				tag := "cold"
				if warmStarted {
					tag = "warm"
				}
				fl.NoteDecision("point", fmt.Sprintf("p=%.6g", p),
					fmt.Sprintf("method=%s start=%s", solveMethod, tag), iters)
			}
			if pr {
				tag := "cold"
				if warmStarted {
					tag = "warm"
				}
				fmt.Fprintf(os.Stderr, "qs-threshold: point %d/%d p=%.6g done (%d iterations, %s, %s)\n",
					i+1, len(ps), p, iters, solveMethod, tag)
			}
		}
	}
	var trace *obs.Trace
	if *traceFile != "" {
		trace = obs.NewTrace(*traceEvery)
	}
	if trace != nil || fl != nil {
		opts.Observe = func(i int, p float64) quasispecies.SolveObserver {
			label := fmt.Sprintf("p=%.6g", p)
			var o quasispecies.SolveObserver
			if trace != nil {
				o = trace.Recorder(label)
			}
			if fl != nil {
				o = quasispecies.TeeSolveObservers(o, fl.Observer(label))
			}
			return o
		}
	}

	run.StartSpans()
	var pts []quasispecies.ThresholdPoint
	if *full {
		pts, err = quasispecies.ThresholdCurveFullWith(l, ps, opts)
	} else {
		pts, err = quasispecies.ThresholdCurveWith(l, ps, opts)
	}
	run.Finish(err)
	if trace != nil {
		// Write the trace even on failure: a stagnation trace of the point
		// that failed is exactly what the file is for.
		if werr := trace.WriteFile(*traceFile); werr != nil {
			fmt.Fprintln(os.Stderr, "qs-threshold:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "qs-threshold: convergence trace written to %s (%d rows)\n",
				*traceFile, len(trace.Rows()))
		}
	}
	exitOn(err)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprint(w, "p")
	for k := 0; k <= *nu; k++ {
		fmt.Fprintf(w, "\tGamma%d", k)
	}
	fmt.Fprintln(w)
	for _, pt := range pts {
		fmt.Fprintf(w, "%.6g", pt.P)
		for _, g := range pt.Gamma {
			fmt.Fprintf(w, "\t%.8g", g)
		}
		fmt.Fprintln(w)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qs-threshold:", err)
		os.Exit(1)
	}
}
