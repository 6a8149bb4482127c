// Command qs-speedup regenerates Figure 4 of the paper: speedup factors of
// every algorithm×hardware combination over the reference CPU-Pi(Xmvp(ν))
// — serial Θ(N²) power iteration — for increasing chain lengths. As in the
// paper, the reference is measured up to -maxfull and extrapolated beyond
// (the paper extrapolated for ν ≥ 22).
//
// The expected shape (the paper's headline): curves for the same algorithm
// on different hardware run parallel (constant parallel-speedup offset);
// curves for different algorithms have different slopes, with
// parallel-Pi(Fmmp) the fastest combination by many orders of magnitude at
// large ν.
//
//	qs-speedup -numin 10 -numax 22 > fig4.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/device"
	"repro/internal/harness"
)

func main() {
	var (
		nuMin     = flag.Int("numin", 10, "smallest chain length")
		nuMax     = flag.Int("numax", 20, "largest chain length")
		p         = flag.Float64("p", 0.01, "error rate")
		tolExact  = flag.Float64("tol", 1e-13, "residual tolerance for exact methods")
		tolApprox = flag.Float64("tol-approx", 1e-10, "residual tolerance for Xmvp(5)")
		maxFull   = flag.Int("maxfull", 13, "largest ν measured for Pi(Xmvp(ν))")
		maxSparse = flag.Int("maxsparse", 18, "largest ν measured for Pi(Xmvp(5))")
		workers   = flag.Int("workers", 0, "parallel device workers (0 = all cores)")
		seed      = flag.Uint64("seed", 1, "random landscape seed")
		modelBW   = flag.Float64("model-bandwidth", 144, "also emit a roofline-modeled Pi(Fmmp) curve for a device with this memory bandwidth in GB/s (0 disables; 144 = the paper's Tesla C2050)")
	)
	flag.Parse()
	if *nuMin < 1 || *nuMax < *nuMin || *nuMax > 28 {
		exitOn(fmt.Errorf("invalid ν range [%d, %d]", *nuMin, *nuMax))
	}
	var nus []int
	for n := *nuMin; n <= *nuMax; n++ {
		nus = append(nus, n)
	}

	base := harness.SolverConfig{
		Nus: nus, P: *p, TolExact: *tolExact, TolApprox: *tolApprox,
		MaxFull: *maxFull, MaxSparse: *maxSparse, Seed: *seed,
	}

	// Serial ("CPU") runs.
	cpuCfg := base
	cpuCfg.Dev = nil
	cpuSeries, err := harness.SolverRuntimes(cpuCfg)
	exitOn(err)

	// Parallel ("GPU" analogue) runs.
	gpuCfg := base
	gpuCfg.Dev = device.New(*workers)
	gpuSeries, err := harness.SolverRuntimes(gpuCfg)
	exitOn(err)

	rename := func(s []*harness.Series, prefix string) {
		for _, x := range s {
			x.Name = prefix + "-" + x.Name
		}
	}
	rename(cpuSeries, "CPU")
	rename(gpuSeries, "PAR")

	// Reference: CPU-Pi(Xmvp(ν)).
	reference := cpuSeries[0]
	comparisons := []*harness.Series{
		gpuSeries[2], // PAR-Pi(Fmmp)
		cpuSeries[2], // CPU-Pi(Fmmp)
		gpuSeries[1], // PAR-Pi(Xmvp(5))
		cpuSeries[1], // CPU-Pi(Xmvp(5))
		gpuSeries[0], // PAR-Pi(Xmvp(ν))
	}

	// Roofline-modeled device curve (Section 4: Fmmp performance tracks
	// memory bandwidth), giving the constant hardware offset of Figure 4
	// even on hosts whose core count cannot provide one.
	var achieved float64
	if *modelBW > 0 {
		var err error
		achieved, err = harness.AchievedBandwidth(cpuSeries[2])
		exitOn(err)
		model, err := harness.ModeledFmmpSeries(
			fmt.Sprintf("MODEL%.0fGBs-Pi(Fmmp)", *modelBW), *modelBW*1e9, cpuSeries[2])
		exitOn(err)
		comparisons = append([]*harness.Series{model}, comparisons...)
	}
	table := harness.Speedups(reference, comparisons)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# Figure 4: speedup over %s (reference extrapolated past ν=%d, as in the paper)\n",
		reference.Name, *maxFull)
	fmt.Fprintf(w, "# parallel device: %s\n", gpuCfg.Dev)
	if *modelBW > 0 {
		fmt.Fprintf(w, "# host achieved Fmmp bandwidth %.2f GB/s; modeled device %.0f GB/s (offset %.1fx)\n",
			achieved/1e9, *modelBW, *modelBW*1e9/achieved)
	}
	exitOn(table.WriteTSV(w))
	fmt.Fprintln(w, "#")
	fmt.Fprintln(w, "# underlying wall times [s]:")
	exitOn(harness.WriteSeriesTSV(w, append(cpuSeries, gpuSeries...)))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qs-speedup:", err)
		os.Exit(1)
	}
}
