package quasispecies

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kron"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// ThresholdPoint is one error rate of an error-threshold sweep: the
// cumulative class concentrations [Γ_0] … [Γ_ν] at that p.
type ThresholdPoint struct {
	P     float64
	Gamma []float64
}

// SweepOptions configures the batched sweep engine behind ThresholdCurve
// and LocateErrorThreshold. The zero value is the serial cold-start sweep.
type SweepOptions struct {
	// Workers runs that many eigensolves concurrently; 0 or 1 is serial,
	// < 0 selects all available cores. Sweep results are bit-identical at
	// every worker count.
	Workers int
	// WarmStart seeds each solve from the converged solutions of the
	// previous error rates along continuation chains (eight points each up
	// to 64 points, at most eight chains beyond) — a large iteration saving
	// on monotone p-grids, at the same accuracy. The reduced sweep starts
	// from the previous point's Γ; a full-space sweep
	// (ThresholdCurveFullWith) starts from the Lagrange extrapolation to p
	// through up to the chain's last four solutions, the order picked by
	// how well each order predicted the previous solution, falling back to
	// the previous solution alone when grid points coincide.
	WarmStart bool
	// Observe, when non-nil, supplies a convergence-trace observer for
	// point i (p = ps[i]) of a full-space sweep (ThresholdCurveFullWith);
	// return nil to skip a point. Factories may be called concurrently.
	// The reduced sweep does not trace and ignores it.
	Observe func(i int, p float64) SolveObserver
	// Progress, when non-nil, is called once per finished sweep point with
	// its solver iteration count, warm-start status, and the name of the
	// solve method that produced it ("power", "chebyshev", "shiftinvert",
	// …). Calls arrive concurrently from the sweep workers.
	Progress func(i int, p float64, iters int, warm bool, method string)
	// Method selects the per-point eigensolver: "" or "power" (the
	// default: the paper's shifted power iteration at every point),
	// "auto" (per-point adaptive selection — power far from the error
	// threshold, Chebyshev-filtered restarts and shift-invert Lanczos
	// inside the critical window), or a forced gear ("chebyshev" or
	// "shiftinvert"). Reduced sweeps map every non-power method
	// onto the dense shift-invert (RQI) path.
	Method string
}

// ThresholdCurve sweeps the error rate p over the given values for a
// class-based landscape and returns the Figure 1 curves. The exact
// (ν+1)×(ν+1) reduction makes the sweep cheap at any chain length.
func ThresholdCurve(l Landscape, ps []float64) ([]ThresholdPoint, error) {
	return ThresholdCurveWith(l, ps, SweepOptions{})
}

// ThresholdCurveWith is ThresholdCurve on the batched sweep engine:
// eigensolves are scheduled over opts.Workers concurrent slots and may be
// warm-started along the grid. The returned curves are bit-identical to
// the serial sweep at every worker count.
func ThresholdCurveWith(l Landscape, ps []float64, opts SweepOptions) ([]ThresholdPoint, error) {
	if !l.valid() {
		return nil, fmt.Errorf("%w: use the package constructors for Landscape", ErrInvalidModel)
	}
	method, err := core.ParseSolveMethod(opts.Method)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidModel, err)
	}
	pts, _, err := harness.ThresholdSweepOpts(l.l, ps, harness.SweepOptions{
		Workers: normalizeSweepWorkers(opts.Workers), WarmStart: opts.WarmStart,
		Progress: opts.Progress, Method: method,
	})
	if err != nil {
		return nil, err
	}
	return convertThresholdPoints(pts), nil
}

// ThresholdCurveFullWith sweeps the error rate with full 2^ν Pi(Fmmp)
// solves instead of the exact class reduction — the path that exercises
// the instrumented solver core end to end (butterfly kernels, power
// iterations, warm-start continuation) and therefore the one behind
// qs-threshold's -full mode. Works for any landscape; convergence traces
// attach via opts.Observe.
func ThresholdCurveFullWith(l Landscape, ps []float64, opts SweepOptions) ([]ThresholdPoint, error) {
	if !l.valid() {
		return nil, fmt.Errorf("%w: use the package constructors for Landscape", ErrInvalidModel)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	if err := harness.ValidateGrid(ps); err != nil {
		return nil, err
	}
	q, err := mutation.NewUniform(l.ChainLen(), ps[0])
	if err != nil {
		return nil, fmt.Errorf("quasispecies: %w", err)
	}
	method, err := core.ParseSolveMethod(opts.Method)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidModel, err)
	}
	hopts := harness.SweepOptions{
		Workers: normalizeSweepWorkers(opts.Workers), WarmStart: opts.WarmStart,
		Progress: opts.Progress, Method: method,
	}
	if opts.Observe != nil {
		hopts.Observe = func(i int, p float64) core.Observer {
			if o := opts.Observe(i, p); o != nil {
				return o
			}
			return nil // avoid a non-nil interface wrapping a nil observer
		}
	}
	pts, _, err := harness.ThresholdSweepFullOpts(q, l.l, ps, hopts)
	if err != nil {
		return nil, err
	}
	return convertThresholdPoints(pts), nil
}

func convertThresholdPoints(pts []harness.ThresholdPoint) []ThresholdPoint {
	out := make([]ThresholdPoint, len(pts))
	for i, pt := range pts {
		out[i] = ThresholdPoint{P: pt.P, Gamma: pt.Gamma}
	}
	return out
}

// LocateErrorThreshold bisects the critical error rate p_max at which the
// ordered quasispecies of a class-based landscape collapses into the
// uniform distribution (the Figure 1 phase transition), searching the
// bracket [lo, hi] to within tol. A tol ≤ 0 selects 1e-5; a NaN or
// infinite tol is an error.
func LocateErrorThreshold(l Landscape, lo, hi, tol float64) (float64, error) {
	return LocateErrorThresholdWith(l, lo, hi, tol, SweepOptions{})
}

// LocateErrorThresholdWith is LocateErrorThreshold with opts.Workers
// bracket points evaluated concurrently per round (k-section search),
// shrinking the bracket by a factor Workers+1 per round instead of 2.
func LocateErrorThresholdWith(l Landscape, lo, hi, tol float64, opts SweepOptions) (float64, error) {
	if !l.valid() {
		return 0, fmt.Errorf("%w: use the package constructors for Landscape", ErrInvalidModel)
	}
	method, err := core.ParseSolveMethod(opts.Method)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidModel, err)
	}
	return harness.LocateThresholdOpts(l.l, lo, hi, tol, harness.SweepOptions{
		Workers: normalizeSweepWorkers(opts.Workers), Method: method,
	})
}

// normalizeSweepWorkers maps the public convention (0 or 1 serial, < 0 all
// cores) onto the harness convention (≤ 0 all cores).
func normalizeSweepWorkers(n int) int {
	if n == 0 {
		return 1
	}
	if n < 0 {
		return 0 // harness/batch: ≤ 0 selects GOMAXPROCS
	}
	return n
}

// TheoreticalErrorThreshold returns the first-order estimate
// p_max ≈ 1 − σ^(−1/ν) for a single-peak landscape with superiority
// σ = f₀/f_base, which must be finite and exceed 1.
func TheoreticalErrorThreshold(sigma float64, chainLen int) (float64, error) {
	return harness.TheoreticalThreshold(sigma, chainLen)
}

// ---------------------------------------------------------------------------
// Kronecker-structured systems (Section 5.2)

// KroneckerBlock is one independent group of a long-chain system: a block
// of positions with its own error rate and fitness factor.
type KroneckerBlock struct {
	// ChainLen is the block's width gᵢ in positions.
	ChainLen int
	// ErrorRate is the uniform per-position error rate within the block.
	ErrorRate float64
	// Fitness is the block's diagonal fitness factor of length 2^ChainLen;
	// the full landscape is the Kronecker product of the block factors.
	Fitness []float64
}

// KroneckerSolution is the implicitly represented quasispecies of a
// Kronecker-structured system. The full eigenvector has 2^ν entries and is
// never materialized; concentrations are accessed per sequence or as
// class aggregates.
type KroneckerSolution struct {
	res      *kron.Result
	chainLen int
}

// ChainLen returns the total ν = Σ gᵢ.
func (s *KroneckerSolution) ChainLen() int { return s.chainLen }

// Lambda returns the dominant eigenvalue λ = Π λᵢ.
func (s *KroneckerSolution) Lambda() float64 { return s.res.Lambda }

// Concentration returns xᵢ for a single sequence (ν ≤ 62).
func (s *KroneckerSolution) Concentration(i uint64) (float64, error) { return s.res.At(i) }

// MasterConcentration returns x₀ at any chain length.
func (s *KroneckerSolution) MasterConcentration() float64 { return s.res.MasterConcentration() }

// Gamma returns the exact cumulative class concentrations [Γ_0] … [Γ_ν],
// computed by convolution over the blocks — Θ(ν²) regardless of 2^ν.
func (s *KroneckerSolution) Gamma() []float64 { return s.res.ClassConcentrations() }

// ClassEnvelope returns per-class minimum and maximum single-sequence
// concentrations — the error-threshold diagnostic Section 5.2 proposes.
func (s *KroneckerSolution) ClassEnvelope() (min, max []float64) { return s.res.ClassMinMax() }

// SolveKronecker solves a long-chain quasispecies problem whose mutation
// process and fitness landscape share Kronecker block structure (Eqs. 11
// and 18): the problem decouples into one independent solve per block
// ("for a Kronecker fitness landscape with g = 4 [a chain length ν = 100]
// could be reduced to four subproblems of dimension 2^25").
func SolveKronecker(blocks []KroneckerBlock, opts ...Option) (*KroneckerSolution, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: no blocks", ErrInvalidModel)
	}
	// Reuse Model option parsing for tolerance/shift settings.
	cfg := &Model{maxIter: 500000, useShift: true, workers: 1, xmvpRadius: 5}
	for _, o := range opts {
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	factors := make([]kron.Factor, len(blocks))
	total := 0
	for i, b := range blocks {
		q, err := mutation.NewUniform(b.ChainLen, b.ErrorRate)
		if err != nil {
			return nil, fmt.Errorf("quasispecies: block %d: %w", i, err)
		}
		f, err := landscape.NewVector(b.Fitness)
		if err != nil {
			return nil, fmt.Errorf("quasispecies: block %d: %w", i, err)
		}
		if f.ChainLen() != b.ChainLen {
			return nil, fmt.Errorf("%w: block %d fitness has 2^%d entries, want 2^%d",
				ErrInvalidModel, i, f.ChainLen(), b.ChainLen)
		}
		factors[i] = kron.Factor{Q: q, F: f}
		total += b.ChainLen
	}
	sys, err := kron.NewSystem(factors)
	if err != nil {
		return nil, err
	}
	tol := 0.0 // 0 selects each factor's floating-point-floor default
	if cfg.tolSet {
		tol = cfg.tol
	}
	// WithWorkers here parallelizes across blocks: the subproblems are
	// independent, so block-level scheduling is the natural concurrency.
	res, err := sys.Solve(kron.SolveOptions{
		Tol: tol, MaxIter: cfg.maxIter, UseShift: cfg.useShift,
		Workers: cfg.workers,
	})
	if err != nil {
		return nil, err
	}
	return &KroneckerSolution{res: res, chainLen: total}, nil
}
