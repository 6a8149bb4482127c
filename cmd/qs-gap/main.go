// Command qs-gap sweeps the error rate and reports the spectral gap of
// W = Q·F — the quantity that governs the power iteration's convergence
// rate λ₁/λ₀ and, through it, every runtime in Figures 3 and 4. The gap
// closes as p approaches the error threshold, which is Figure 1's phase
// transition seen from the spectrum.
//
// The estimate is the adaptive selector's gap probe: 24 Lanczos steps from
// the fixed probe start (core.RitzGap), whose two leading Ritz values
// stand in for λ₀ and λ₁.
//
// Output: p, λ₀, λ₁, rate, shifted rate (with µ = (1−2p)^ν·f_min), the
// predicted iteration count to reach 1e−10, and a status column. Inside the
// critical window the two leading eigenvalues collapse below the attainable
// numerical resolution; such points are reported as "unresolved" (with the
// reason) instead of a spuriously tiny gap — the same rule
// (core.RitzResolved) that makes the adaptive sweep engine
// (qs-threshold -method auto) switch off the power iteration there.
//
//	qs-gap -nu 14 -pmin 0.005 -pmax 0.08 -steps 16
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

func main() {
	var (
		nu    = flag.Int("nu", 12, "chain length ν")
		f0    = flag.Float64("f0", 2, "master fitness")
		f1    = flag.Float64("f1", 1, "base fitness")
		pMin  = flag.Float64("pmin", 0.005, "smallest error rate")
		pMax  = flag.Float64("pmax", 0.08, "largest error rate")
		steps = flag.Int("steps", 12, "number of p samples")
	)
	flag.Parse()
	if *steps < 2 || *pMin <= 0 || *pMax <= *pMin || *pMax > 0.5 {
		exitOn(fmt.Errorf("invalid sweep [%g, %g] with %d steps", *pMin, *pMax, *steps))
	}
	l, err := landscape.NewSinglePeak(*nu, *f0, *f1)
	exitOn(err)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# spectral gap of W = Q·F, single peak f0=%g f1=%g, ν=%d\n", *f0, *f1, *nu)
	fmt.Fprintln(w, "p\tlambda0\tlambda1\trate\tshifted_rate\tpredicted_iters_1e-10\tstatus")
	for i := 0; i < *steps; i++ {
		p := *pMin + (*pMax-*pMin)*float64(i)/float64(*steps-1)
		q, err := mutation.NewUniform(*nu, p)
		exitOn(err)
		op, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
		exitOn(err)
		mu := core.ConservativeShift(q, l)
		theta0, theta1, err := core.RitzGap(op, 24, nil, nil)
		reason := ""
		var unresolved *core.GapUnresolvedError
		switch {
		case errors.As(err, &unresolved):
			reason = unresolved.Reason
		case err != nil:
			exitOn(err)
		case !core.RitzResolved(theta0, theta1):
			reason = "near_degenerate"
		}
		if reason != "" {
			// θ₀ is still trustworthy; the separation is not. Report the
			// point instead of aborting the sweep — rate and prediction
			// columns are meaningless here.
			fmt.Fprintf(w, "%.5g\t%.8g\t%.8g\tnan\tnan\t-1\tunresolved:%s\n",
				p, theta0, theta1, reason)
			continue
		}
		rate := theta1 / theta0
		shifted := (theta1 - mu) / (theta0 - mu)
		iters, err := core.PredictIterations(shifted, 1e-10)
		if err != nil {
			iters = -1
		}
		fmt.Fprintf(w, "%.5g\t%.8g\t%.8g\t%.6f\t%.6f\t%d\tok\n",
			p, theta0, theta1, rate, shifted, iters)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qs-gap:", err)
		os.Exit(1)
	}
}
