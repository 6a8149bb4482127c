// Command qs-matvec regenerates Figure 2 of the paper: single-core
// runtimes of one implicit matrix–vector product W·x for the three
// methods — Xmvp(ν) (≡ Smvp, Θ(N²), extrapolated past -maxfull as in the
// paper), Xmvp(1) (the coarsest sparsification, Θ(N·(ν+1))) and Fmmp
// (exact, Θ(N·log₂N)).
//
// The expected shape: Fmmp is fastest from small ν on — faster even than
// the lowest-accuracy approximation — with a visibly flatter slope than
// the Θ(N²) curve.
//
//	qs-matvec -numin 10 -numax 25 > fig2.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	var (
		nuMin   = flag.Int("numin", 10, "smallest chain length")
		nuMax   = flag.Int("numax", 22, "largest chain length")
		p       = flag.Float64("p", 0.01, "error rate")
		reps    = flag.Int("reps", 3, "repetitions per measurement (best-of)")
		maxFull = flag.Int("maxfull", 14, "largest ν measured for the Θ(N²) method (larger are extrapolated)")
		seed    = flag.Uint64("seed", 1, "random landscape seed")
	)
	flag.Parse()
	if *nuMin < 1 || *nuMax < *nuMin || *nuMax > 30 {
		fmt.Fprintf(os.Stderr, "qs-matvec: invalid ν range [%d, %d]\n", *nuMin, *nuMax)
		os.Exit(1)
	}

	var nus []int
	for nu := *nuMin; nu <= *nuMax; nu++ {
		nus = append(nus, nu)
	}
	series, err := harness.MatvecRuntimes(harness.MatvecConfig{
		Nus: nus, P: *p, Reps: *reps, MaxFull: *maxFull, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qs-matvec:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "# Figure 2: runtimes [s] of one implicit matvec W·x on a single core")
	fmt.Fprintln(w, "# '*' marks extrapolated values (paper does the same for the O(N^2) reference)")
	if err := harness.WriteSeriesTSV(w, series); err != nil {
		fmt.Fprintln(os.Stderr, "qs-matvec:", err)
		os.Exit(1)
	}
}
