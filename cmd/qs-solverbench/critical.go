package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
)

// Critical-window benchmark mode (-critical): one full-pipeline sweep
// straddling the error threshold p_c with the adaptive method selector
// (serial and parallel, bit-identity checked), plus the capped power
// baseline that the collapsing spectral gap is expected to defeat. Results
// go to stdout as TSV; -json additionally writes the machine-readable
// baseline (results/BENCH_critical.json is produced this way).

// criticalReport is the JSON baseline document; the result's host block
// records the machine it ran on.
type criticalReport struct {
	Result *harness.CriticalBenchResult `json:"result"`
}

func runCriticalBench(w io.Writer, nu, points, workers int, sigma, fracMin, fracMax, tol float64, jsonPath string) error {
	res, err := harness.RunCriticalBench(harness.CriticalBenchConfig{
		Nu: nu, Points: points, Workers: workers, Sigma: sigma,
		FracMin: fracMin, FracMax: fracMax, Tol: tol,
	})
	if err != nil {
		return err
	}
	if !res.BitIdentical {
		return fmt.Errorf("parallel adaptive sweep deviated from serial — determinism contract broken")
	}
	if err := res.WriteTSV(w); err != nil {
		return err
	}
	if jsonPath != "" {
		rep := criticalReport{Result: res}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
