package harness

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/obs"
)

// Critical-window benchmark: a full-space sweep across the error threshold
// p_c — the regime the adaptive engine exists for. The grid straddles p_c
// (default 0.90·p_c → 1.08·p_c), where the spectral gap collapses and the
// plain power iteration stalls or blows past any reasonable budget. The
// benchmark runs the adaptive sweep serially and in parallel (bit-identity
// cross-check), then attempts the same sweep with the capped power
// iteration as the baseline the paper's cost model predicts will struggle.

// CriticalBenchConfig parameterizes RunCriticalBench.
type CriticalBenchConfig struct {
	Nu    int     // chain length (default 18)
	Sigma float64 // single-peak superiority f₀/f_base (default 2)
	// Points is the sweep grid size (default 13).
	Points int
	// FracMin/FracMax bracket the grid in units of the theoretical
	// threshold p_c = 1 − σ^(−1/ν) (defaults 0.90 and 1.08: through the
	// window, not around it).
	FracMin, FracMax float64
	Workers          int // parallel worker count (default runtime.GOMAXPROCS(0))
	Tol              float64
	// MaxIter caps matrix–vector products per adaptive gear attempt
	// (0 = solver defaults).
	MaxIter int
	// PowerMaxIter caps the baseline power sweep (default 20000); hitting
	// the cap marks the baseline variant failed rather than erroring the
	// whole benchmark — that failure is the benchmark's point.
	PowerMaxIter int
	Dev          *device.Device
}

// CriticalPoint is one solved grid point of the adaptive sweep.
type CriticalPoint struct {
	P          float64 `json:"p"`
	FracPC     float64 `json:"frac_pc"` // p / p_c
	Method     string  `json:"method"`
	Iterations int     `json:"iterations"` // matvecs: probe + every gear attempt
	// Predicted is the selector's predicted matvecs (probe + first gear);
	// 0 when that gear has no predictor.
	Predicted int     `json:"predicted"`
	Warm      bool    `json:"warm"`
	Gamma0    float64 `json:"gamma0"` // master-class concentration
	// Probe is the part of Iterations the gap probe took: 24 at the cap,
	// fewer where its top Ritz pair met the tolerance first. A slow point
	// with a capped probe is the probe's cost; otherwise the gear's.
	Probe int `json:"probe"`
}

// CriticalBenchVariant is one measured sweep configuration.
type CriticalBenchVariant struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations"` // total over the sweep
	// MaxPointIterations is the worst single point — the bounded-per-point
	// cost the adaptive engine is gated on.
	MaxPointIterations int `json:"max_point_iterations"`
	// Failed marks a variant that could not finish the sweep (the capped
	// power baseline inside the window); Error says why.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// CriticalBenchResult is the outcome of RunCriticalBench.
type CriticalBenchResult struct {
	Nu      int     `json:"nu"`
	Sigma   float64 `json:"sigma"`
	PC      float64 `json:"p_c"`
	Points  int     `json:"points"`
	Workers int     `json:"workers"`
	PMin    float64 `json:"p_min"`
	PMax    float64 `json:"p_max"`
	// Host is the run's host block (the machine shape and kernel tier,
	// as in a flight manifest) with the Go version that ran it, so stored
	// results stay interpretable: timings from a 1-core CI runner and a
	// 32-core workstation must not be compared as if equivalent.
	Host struct {
		GoVersion string `json:"go_version"`
		obs.Host
	} `json:"host"`
	// Grid holds the per-point outcomes of the serial adaptive sweep.
	Grid     []CriticalPoint        `json:"grid"`
	Variants []CriticalBenchVariant `json:"variants"`
	// MethodCounts tallies the serial adaptive sweep's points by gear.
	MethodCounts map[string]int `json:"method_counts"`
	// Escalations is the serial adaptive sweep's abandoned gear attempts.
	Escalations int `json:"escalations"`
	// BitIdentical reports that the parallel adaptive sweep reproduced the
	// serial Gamma curves bit for bit.
	BitIdentical bool `json:"bit_identical"`
	// PowerCrossed reports whether the capped power baseline finished the
	// sweep at all.
	PowerCrossed bool `json:"power_crossed"`
}

func (cfg *CriticalBenchConfig) defaults() error {
	if cfg.Nu <= 0 {
		cfg.Nu = 18
	}
	if cfg.Sigma <= 1 {
		cfg.Sigma = 2
	}
	if cfg.Points <= 0 {
		cfg.Points = 13
	}
	if cfg.Points < 2 {
		return fmt.Errorf("harness: critical bench needs at least 2 points, got %d", cfg.Points)
	}
	if cfg.FracMin <= 0 || cfg.FracMax <= cfg.FracMin {
		cfg.FracMin, cfg.FracMax = 0.90, 1.08
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.PowerMaxIter <= 0 {
		cfg.PowerMaxIter = 20000
	}
	return nil
}

// RunCriticalBench sweeps the critical window with the adaptive engine
// (serial and parallel, bit-identity checked) and attempts the same window
// with the capped power iteration as the baseline.
func RunCriticalBench(cfg CriticalBenchConfig) (*CriticalBenchResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	l, err := landscape.NewSinglePeak(cfg.Nu, cfg.Sigma, 1)
	if err != nil {
		return nil, err
	}
	pc := 1 - math.Pow(cfg.Sigma, -1/float64(cfg.Nu))
	pMin, pMax := cfg.FracMin*pc, cfg.FracMax*pc
	q, err := mutation.NewUniform(cfg.Nu, pMin)
	if err != nil {
		return nil, err
	}
	ps := make([]float64, cfg.Points)
	for i := range ps {
		ps[i] = pMin + (pMax-pMin)*float64(i)/float64(cfg.Points-1)
	}

	res := &CriticalBenchResult{
		Nu: cfg.Nu, Sigma: cfg.Sigma, PC: pc,
		Points: cfg.Points, Workers: cfg.Workers,
		PMin: pMin, PMax: pMax,
	}
	res.Host.GoVersion, res.Host.Host = runtime.Version(), obs.CurrentHost()
	run := func(name string, workers int, method core.SolveMethod, maxIter int) ([]ThresholdPoint, *SweepStats, error) {
		opts := SweepOptions{
			Workers: workers, WarmStart: true, Method: method,
			Tol: cfg.Tol, MaxIter: maxIter, Dev: cfg.Dev,
		}
		var pts []ThresholdPoint
		var stats *SweepStats
		var runErr error
		secs := MeasureSeconds(func() {
			pts, stats, runErr = ThresholdSweepFullOpts(q, l, ps, opts)
		})
		v := CriticalBenchVariant{Name: name, Workers: workers, Seconds: secs}
		if runErr != nil {
			v.Failed = true
			v.Error = runErr.Error()
		} else {
			v.Iterations = stats.TotalIterations()
			for _, it := range stats.Iterations {
				if it > v.MaxPointIterations {
					v.MaxPointIterations = it
				}
			}
		}
		res.Variants = append(res.Variants, v)
		return pts, stats, runErr
	}

	serial, serialStats, err := run("auto-serial", 1, core.SolveAuto, cfg.MaxIter)
	if err != nil {
		return nil, fmt.Errorf("harness: adaptive critical sweep failed: %w", err)
	}
	res.MethodCounts = serialStats.MethodCounts()
	res.Escalations = serialStats.Escalations
	res.Grid = make([]CriticalPoint, len(ps))
	for i := range ps {
		res.Grid[i] = CriticalPoint{
			P: ps[i], FracPC: ps[i] / pc,
			Method: serialStats.Methods[i], Iterations: serialStats.Iterations[i],
			Predicted: serialStats.Predicted[i],
			Warm:      serialStats.Warm[i], Gamma0: serial[i].Gamma[0],
			Probe: serialStats.Probe[i],
		}
	}

	parallel, _, err := run("auto-parallel", cfg.Workers, core.SolveAuto, cfg.MaxIter)
	if err != nil {
		return nil, fmt.Errorf("harness: parallel adaptive sweep failed: %w", err)
	}
	res.BitIdentical = pointsIdentical(serial, parallel)

	// The baseline: the historical power sweep, capped. Convergence errors
	// are the expected outcome inside the window and are recorded, not
	// returned.
	_, _, err = run("power-capped", 1, core.SolvePower, cfg.PowerMaxIter)
	if err != nil && !errors.Is(err, core.ErrNoConvergence) && !errors.Is(err, core.ErrStagnated) {
		return nil, fmt.Errorf("harness: power baseline failed unexpectedly: %w", err)
	}
	res.PowerCrossed = err == nil
	return res, nil
}

// pointsIdentical reports bit-for-bit equality of two sweep results.
func pointsIdentical(a, b []ThresholdPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].P != b[i].P || len(a[i].Gamma) != len(b[i].Gamma) {
			return false
		}
		for k := range a[i].Gamma {
			if a[i].Gamma[k] != b[i].Gamma[k] {
				return false
			}
		}
	}
	return true
}

// WriteTSV renders the benchmark as tab-separated values: per-point rows of
// the serial adaptive sweep, then one row per variant.
func (r *CriticalBenchResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# critical bench: nu=%d sigma=%g p_c=%.6g grid=[%.6g,%.6g] points=%d workers=%d bit_identical=%v power_crossed=%v escalations=%d\n",
		r.Nu, r.Sigma, r.PC, r.PMin, r.PMax, r.Points, r.Workers, r.BitIdentical, r.PowerCrossed, r.Escalations); err != nil {
		return err
	}
	if r.Host.GoVersion != "" {
		if _, err := fmt.Fprintf(w, "# host: %s %s/%s cpus=%d gomaxprocs=%d\n",
			r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH, r.Host.NumCPU, r.Host.GOMAXPROCS); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "p\tfrac_pc\tmethod\titerations\tpredicted\twarm\tgamma0\tprobe"); err != nil {
		return err
	}
	for _, pt := range r.Grid {
		if _, err := fmt.Fprintf(w, "%.8g\t%.4f\t%s\t%d\t%d\t%v\t%.8g\t%d\n",
			pt.P, pt.FracPC, pt.Method, pt.Iterations, pt.Predicted, pt.Warm, pt.Gamma0, pt.Probe); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "variant\tworkers\tseconds\titerations\tmax_point_iterations\tfailed"); err != nil {
		return err
	}
	for _, v := range r.Variants {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.6g\t%d\t%d\t%v\n",
			v.Name, v.Workers, v.Seconds, v.Iterations, v.MaxPointIterations, v.Failed); err != nil {
			return err
		}
	}
	return nil
}
