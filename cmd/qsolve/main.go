// Command qsolve computes the quasispecies distribution for a configurable
// model: chain length, error rate, fitness landscape and solver method.
//
// Examples:
//
//	qsolve -nu 20 -p 0.01 -landscape singlepeak -f0 2 -f1 1
//	qsolve -nu 16 -p 0.02 -landscape random -c 5 -sigma 1 -seed 7 -method fmmp -workers 0
//	qsolve -nu 12 -p 0.01 -landscape linear -f0 2 -f1 1 -method lanczos -dump-gamma
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	quasispecies "repro"
	"repro/cmd/internal/cliobs"
	"repro/internal/obs"
)

func main() {
	var (
		nu      = flag.Int("nu", 16, "chain length ν (problem size N = 2^ν)")
		p       = flag.Float64("p", 0.01, "error rate p ∈ (0, 1/2]")
		land    = flag.String("landscape", "singlepeak", "fitness landscape: singlepeak | linear | random | flat")
		f0      = flag.Float64("f0", 2, "master fitness (singlepeak/linear) or flat value")
		f1      = flag.Float64("f1", 1, "base fitness (singlepeak) / distance-ν fitness (linear)")
		c       = flag.Float64("c", 5, "random landscape: master fitness c (Eq. 13)")
		sigma   = flag.Float64("sigma", 1, "random landscape: scale σ ∈ (0, c/2) (Eq. 13)")
		seed    = flag.Uint64("seed", 1, "random landscape seed")
		method  = flag.String("method", "auto", "solver: auto | fmmp | lanczos | xmvp | reduced | arnoldi")
		dmax    = flag.Int("dmax", 5, "Xmvp truncation radius")
		tol     = flag.Float64("tol", 1e-12, "residual tolerance τ")
		workers = flag.Int("workers", 1, "compute workers (0 = all cores, 1 = serial)")
		noShift = flag.Bool("no-shift", false, "disable the convergence shift µ = (1−2p)^ν·f_min")
		gamma   = flag.Bool("dump-gamma", false, "print all class concentrations [Γk]")
		topN    = flag.Int("top", 5, "print the N most concentrated sequences")
		perSite = flag.String("persite", "", "comma-separated per-position error rates (overrides -p; enables the Section 2.2 general process)")
		save    = flag.String("save", "", "write the solved distribution to this checkpoint file")
		load    = flag.String("load", "", "skip solving; analyze the checkpoint file instead")

		traceFile  = flag.String("trace", "", "write the solve's convergence trace to this file (.tsv or .jsonl)")
		traceEvery = flag.Int("trace-every", 1, "keep every Nth residual check in the trace")
	)
	obsFlags := cliobs.Register(cliobs.Help{
		Spans:   "profile the solve with hierarchical spans and print the per-phase time table",
		SpanOut: "write the span timeline as Chrome trace-event JSON to this file (implies -spans; load in Perfetto)",
	})
	flag.Parse()

	run, err := obsFlags.Start("qsolve")
	exitOn(err)
	// -persite overrides -p, so the run has no p grid to record then.
	var pGrid []float64
	if *perSite == "" {
		pGrid = []float64{*p}
	}
	fl := run.StartFlight(quasispecies.FlightOptions{
		Nu: *nu, Method: *method, Workers: *workers, PGrid: pGrid,
	})

	if *load != "" {
		sol, err := quasispecies.LoadSolutionFile(*load)
		run.Finish(err)
		exitOn(err)
		fmt.Printf("loaded checkpoint %s: ν=%d λ=%.15g residual=%.3g\n",
			*load, len(sol.Gamma)-1, sol.Lambda, sol.Residual)
		printSolution(sol, len(sol.Gamma)-1, *gamma, *topN)
		return
	}

	l, err := buildLandscape(*land, *nu, *f0, *f1, *c, *sigma, *seed)
	exitOn(err)
	var mut quasispecies.Mutation
	if *perSite != "" {
		rates, err := parseRates(*perSite)
		exitOn(err)
		if len(rates) != *nu {
			exitOn(fmt.Errorf("-persite lists %d rates, ν = %d", len(rates), *nu))
		}
		mut, err = quasispecies.PerSiteMutation(rates)
		exitOn(err)
	} else {
		mut, err = quasispecies.UniformMutation(*nu, *p)
		exitOn(err)
	}

	m, err := methodFromName(*method)
	exitOn(err)
	modelOpts := []quasispecies.Option{
		quasispecies.WithMethod(m),
		quasispecies.WithTolerance(*tol),
		quasispecies.WithWorkers(*workers),
		quasispecies.WithShift(!*noShift),
		quasispecies.WithXmvpRadius(*dmax),
	}
	var observer quasispecies.SolveObserver
	var trace *obs.Trace
	if *traceFile != "" {
		trace = obs.NewTrace(*traceEvery)
		observer = trace.Recorder(fmt.Sprintf("p=%g", *p))
	}
	if fl != nil {
		observer = quasispecies.TeeSolveObservers(observer, fl.Observer(fmt.Sprintf("p=%g", *p)))
	}
	if observer != nil {
		modelOpts = append(modelOpts, quasispecies.WithObserver(observer))
	}
	model, err := quasispecies.New(mut, l, modelOpts...)
	exitOn(err)

	run.StartSpans()
	start := time.Now()
	sol, err := model.Solve()
	run.Finish(err)
	if trace != nil {
		// Write the trace even when the solve failed — a stagnation trace
		// is exactly what the file is for.
		if werr := trace.WriteFile(*traceFile); werr != nil {
			fmt.Fprintln(os.Stderr, "qsolve:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "qsolve: convergence trace written to %s (%d rows)\n",
				*traceFile, len(trace.Rows()))
		}
	}
	exitOn(err)
	elapsed := time.Since(start)

	fmt.Printf("model:      ν=%d N=%d p=%g landscape=%s\n", *nu, model.Dim(), *p, *land)
	fmt.Printf("method:     %s (%d iterations, residual %.3g)\n", sol.Method, sol.Iterations, sol.Residual)
	fmt.Printf("wall time:  %v\n", elapsed)
	fmt.Printf("lambda:     %.15g   (mean fitness of the stationary population)\n", sol.Lambda)
	fmt.Printf("master x0:  %.10g\n", sol.MasterConcentration())
	printSolution(sol, *nu, *gamma, *topN)

	if *save != "" {
		exitOn(sol.SaveFile(*save))
		fmt.Printf("\ncheckpoint written to %s\n", *save)
	}
}

func printSolution(sol *quasispecies.Solution, nu int, gamma bool, topN int) {
	if gamma {
		fmt.Println("\nclass concentrations [Γk]:")
		for k, g := range sol.Gamma {
			fmt.Printf("  Γ%-3d %.10g\n", k, g)
		}
	}
	if topN > 0 && sol.Concentrations != nil {
		top, err := sol.TopSequences(topN)
		exitOn(err)
		fmt.Printf("\ntop %d sequences:\n", topN)
		for _, e := range top {
			fmt.Printf("  X%-8d (%0*b)  %.10g\n", e.Sequence, nu, e.Sequence, e.Concentration)
		}
	}
}

func parseRates(list string) ([]float64, error) {
	parts := strings.Split(list, ",")
	rates := make([]float64, 0, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("rate %d: %w", i, err)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

func buildLandscape(kind string, nu int, f0, f1, c, sigma float64, seed uint64) (quasispecies.Landscape, error) {
	switch kind {
	case "singlepeak":
		return quasispecies.SinglePeak(nu, f0, f1)
	case "linear":
		return quasispecies.LinearLandscape(nu, f0, f1)
	case "random":
		return quasispecies.RandomLandscape(nu, c, sigma, seed)
	case "flat":
		return quasispecies.FlatLandscape(nu, f0)
	default:
		return quasispecies.Landscape{}, fmt.Errorf("unknown landscape %q", kind)
	}
}

func methodFromName(name string) (quasispecies.Method, error) {
	switch name {
	case "auto":
		return quasispecies.MethodAuto, nil
	case "fmmp":
		return quasispecies.MethodFmmp, nil
	case "lanczos":
		return quasispecies.MethodLanczos, nil
	case "xmvp":
		return quasispecies.MethodXmvp, nil
	case "reduced":
		return quasispecies.MethodReduced, nil
	case "arnoldi":
		return quasispecies.MethodArnoldi, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsolve:", err)
		os.Exit(1)
	}
}
