package harness

import (
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/errorclass"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// This file is the batched sweep engine: the Figure 1 error-rate sweeps
// and the threshold search re-expressed over the internal/batch work-queue
// scheduler, with warm-start continuation along monotone p-chains and
// per-worker scratch reuse.
//
// Determinism contract: the sweep is partitioned into continuation chains
// (batch.Chains) whose layout depends only on the point count — never on
// the worker count: eight-point chains up to 64 points, at most eight
// longer chains beyond. Each chain is one schedulable task whose points run
// in order; within a chain the warm start for point i is a function of the
// chain's own converged vectors before it: point i−1's on a reduced sweep,
// and on a full-space sweep the extrapolation through up to four of them,
// the order picked by how well each order fitted point i−1
// (core.AdaptiveWork.ExtrapolateStart), whose history resets at every
// chain head. Because the per-point arithmetic (operator, start,
// tolerance, shift) is thereby independent of scheduling, a sweep's
// results are bit-identical at every worker count.

// SweepOptions configures the batched sweep engine.
type SweepOptions struct {
	// Workers is the number of concurrent solves; ≤ 0 selects
	// GOMAXPROCS. Results are bit-identical at every worker count.
	Workers int
	// WarmStart seeds each point after the first of its chain from the
	// chain's converged vectors instead of a cold start: a reduced sweep
	// with the previous point's Γ, a full-space sweep with the Lagrange
	// extrapolation at p through up to the chain's last four, the order
	// picked by each order's fit error at the previous point (the previous
	// vector alone at the chain's second point, the secant at its third;
	// core.AdaptiveWork.ExtrapolateStart).
	WarmStart bool
	// ChainLen is the number of consecutive points per warm-start chain
	// (the scheduling granule); ≤ 0 selects the default layout of
	// batch.Chains: batch.DefaultChainLen points per chain up to 64 points,
	// at most eight chains beyond, so one long sweep runs on at most eight
	// workers. The chain layout is what keeps results independent of
	// Workers.
	ChainLen int
	// Tol is the residual tolerance for the full-space solves; ≤ 0
	// selects core.DefaultTolerance for the landscape.
	Tol float64
	// MaxIter caps iterations per solve (0 = solver default).
	MaxIter int
	// Dev is the shared device runtime for the full-space solves; one
	// Device serves all workers (concurrent launches are pooled). Nil
	// runs each solve serially.
	Dev *device.Device
	// Observe, when non-nil, supplies the convergence-trace observer for
	// point i (p = ps[i]) of a full-space sweep; return nil to skip a
	// point. Observers for different points may be invoked concurrently
	// (one solve each), so the factory must be safe for concurrent calls —
	// obs.Trace.Recorder is. Reduced sweeps ignore it.
	Observe func(i int, p float64) core.Observer
	// Progress, when non-nil, is called once per finished point with its
	// solve cost, warm-start status, and the solve method that produced
	// it. Calls arrive concurrently from the sweep workers;
	// implementations must be safe for concurrent use.
	Progress func(i int, p float64, iters int, warm bool, method string)
	// Method selects the per-point eigensolver gear of the sweep. The zero
	// value (core.SolvePower) runs the shifted power iteration at every
	// point; core.SolveAuto engages the adaptive selector
	// (probe → power/chebyshev/shift-invert escalation ladder), which is
	// what lets sweeps cross the critical window with bounded per-point
	// iterations. Reduced sweeps map every non-power method onto the
	// RQI/LU shift-invert path (errorclass.SolveShiftInvertFrom).
	Method core.SolveMethod
}

// SweepStats instruments one sweep run.
type SweepStats struct {
	// Iterations[i] is the solver cost at point i: power/RQI iterations on
	// the classic paths, total matrix–vector products (probe included) on
	// the adaptive path.
	Iterations []int
	// Predicted[i] is the adaptive selector's predicted cost at point i:
	// the probe plus the first gear's predicted matvecs, 0 where that gear
	// has no predictor (core.AdaptiveResult.PredictedMatVecs). Full-space
	// sweeps always allocate it; it reads 0 on power points and is nil on
	// reduced sweeps.
	Predicted []int
	// Probe[i] is the part of Iterations[i] the adaptive selector's gap
	// probe took (core.AdaptiveResult.ProbeMatVecs): at the 24-step cap, or
	// fewer where the probe met the tolerance first. Full-space sweeps
	// always allocate it; it reads 0 on power points and is nil on reduced
	// sweeps.
	Probe []int
	// Warm[i] reports whether point i was warm-started.
	Warm []bool
	// Methods[i] names the solve method that produced point i ("power",
	// "chebyshev" or "shiftinvert").
	Methods []string
	// Escalations is the total number of abandoned gear attempts across
	// the sweep (adaptive path only).
	Escalations int
	// Chains is the number of continuation chains the sweep was split into.
	Chains int
}

// MethodCounts tallies sweep points by solve method.
func (s *SweepStats) MethodCounts() map[string]int {
	out := map[string]int{}
	for _, m := range s.Methods {
		if m != "" {
			out[m]++
		}
	}
	return out
}

// TotalIterations sums the per-point iteration counts.
func (s *SweepStats) TotalIterations() int {
	t := 0
	for _, it := range s.Iterations {
		t += it
	}
	return t
}

// ValidateGrid checks every error rate of a sweep grid (finite, in (0, ½])
// before any solve, so a bad point costs no solve and its error, which
// wraps mutation.ErrInvalidRate, names the point's index and value.
func ValidateGrid(ps []float64) error {
	for i, p := range ps {
		if err := mutation.ValidateRate(p); err != nil {
			return fmt.Errorf("harness: point %d: %w", i, err)
		}
	}
	return nil
}

// ThresholdSweepOpts computes the Figure 1 curves for a class-based
// landscape: for each error rate the dominant eigenvector, accumulated
// into the error classes. It runs the exact Section 5.1 reduction, which
// the reproduction tests verify against the full Pi(Fmmp) solve, scheduled
// over opts.Workers concurrent workers, with warm-start continuation along
// each chain (the reduced iteration runs on M = QΓᵀ·diag(ϕ), so a
// neighbor's Gamma vector is the exact warm start). The whole grid is
// validated first (ValidateGrid).
func ThresholdSweepOpts(l landscape.Landscape, ps []float64, opts SweepOptions) ([]ThresholdPoint, *SweepStats, error) {
	if err := ValidateGrid(ps); err != nil {
		return nil, nil, err
	}
	phi, ok := landscape.ClassBased(l)
	if !ok {
		return nil, nil, fmt.Errorf("harness: threshold sweep needs a class-based landscape, got %T", l)
	}
	// The reduced matrix is dense and (ν+1)²-small, so the method map is
	// two-valued: the historical dense power path, or the RQI/LU
	// shift-invert path whose factorization count stays O(10) across the
	// critical window (every non-power method selects it — there is no
	// Krylov machinery worth running at this size).
	shiftInvert := opts.Method != core.SolvePower
	methodName := core.SolvePower.String()
	if shiftInvert {
		methodName = core.SolveShiftInvert.String()
	}
	out := make([]ThresholdPoint, len(ps))
	stats := &SweepStats{
		Iterations: make([]int, len(ps)), Warm: make([]bool, len(ps)),
		Methods: make([]string, len(ps)),
	}
	chains := batch.Chains(len(ps), opts.ChainLen)
	stats.Chains = len(chains)
	err := batch.Run(len(chains), opts.Workers, func(ci, _ int) error {
		var prev []float64
		for i := chains[ci].Lo; i < chains[ci].Hi; i++ {
			red, err := errorclass.New(phi, ps[i])
			if err != nil {
				return err
			}
			var start []float64
			if opts.WarmStart && prev != nil {
				start = prev
				stats.Warm[i] = true
			}
			var res *errorclass.Result
			if shiftInvert {
				res, err = red.SolveShiftInvertFrom(start)
			} else {
				res, err = red.SolveFrom(start)
			}
			if err != nil {
				return fmt.Errorf("p = %g: %w", ps[i], err)
			}
			out[i] = ThresholdPoint{P: ps[i], Gamma: res.Gamma}
			stats.Iterations[i] = res.Iterations
			stats.Methods[i] = methodName
			if opts.Progress != nil {
				opts.Progress(i, ps[i], res.Iterations, stats.Warm[i], methodName)
			}
			prev = res.Gamma
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %w", err)
	}
	return out, stats, nil
}

// ThresholdSweepFullOpts is the Figure 1 sweep through the full 2^ν
// Pi(Fmmp) pipeline — usable for any landscape — on the batch engine: one
// core.AdaptiveSolve per point, scheduled over opts.Workers workers. Each
// worker owns one reusable core.AdaptiveWork, so memory stays at
// Workers·Θ(N) however long the sweep; each point's operator shares the
// landscape diagonals of a base operator (FmmpOperator.WithProcess) and,
// within a chain, is warm-started from the extrapolation through the
// chain's last converged eigenvectors, built in place in the worker's
// scratch next to the three history vectors it owns. The whole grid is
// validated first (ValidateGrid).
func ThresholdSweepFullOpts(q *mutation.Process, l landscape.Landscape, ps []float64, opts SweepOptions) ([]ThresholdPoint, *SweepStats, error) {
	if err := ValidateGrid(ps); err != nil {
		return nil, nil, err
	}
	baseOp, err := core.NewFmmpOperator(q, l, core.Right, opts.Dev)
	if err != nil {
		return nil, nil, err
	}
	// The Krylov/Chebyshev gears run in the Symmetric formulation; build
	// its base operator once and share its landscape diagonals across the
	// sweep like the Right one. Power sweeps never touch it.
	var baseOpS *core.FmmpOperator
	if opts.Method != core.SolvePower {
		baseOpS, err = core.NewFmmpOperator(q, l, core.Symmetric, opts.Dev)
		if err != nil {
			return nil, nil, err
		}
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = core.DefaultTolerance(l)
	}
	cold := baseOp.FitnessStart() // shared read-only across workers
	works := make([]*core.AdaptiveWork, batch.Workers(opts.Workers))

	out := make([]ThresholdPoint, len(ps))
	stats := &SweepStats{
		Iterations: make([]int, len(ps)), Predicted: make([]int, len(ps)),
		Probe: make([]int, len(ps)), Warm: make([]bool, len(ps)),
		Methods: make([]string, len(ps)),
	}
	chains := batch.Chains(len(ps), opts.ChainLen)
	stats.Chains = len(chains)
	// Escalations accumulate per chain and are summed after the run, so the
	// total never depends on worker interleaving.
	escalations := make([]int, len(chains))
	err = batch.Run(len(chains), opts.Workers, func(ci, worker int) error {
		work := works[worker]
		if work == nil {
			work = core.NewAdaptiveWork(q.Dim())
			works[worker] = work
		}
		// Selector state is chain-local: a fresh zero value per chain keeps
		// warm shifts (and with them the whole gear sequence) independent of
		// which worker runs the chain.
		var state core.MethodState
		var prev []float64
		for i := chains[ci].Lo; i < chains[ci].Hi; i++ {
			p := ps[i]
			qp, err := mutation.NewUniform(q.ChainLen(), p)
			if err != nil {
				return err
			}
			op, err := baseOp.WithProcess(qp)
			if err != nil {
				return err
			}
			var opS *core.FmmpOperator
			if baseOpS != nil {
				if opS, err = baseOpS.WithProcess(qp); err != nil {
					return err
				}
			}
			start := cold
			if opts.WarmStart && prev != nil {
				// The extrapolated start overwrites prev, which aliases the
				// worker's scratch; the solvers self-copy.
				work.ExtrapolateStart(prev, ps[chains[ci].Lo:i], p)
				start = prev
				stats.Warm[i] = true
			}
			var observer core.Observer
			if opts.Observe != nil {
				observer = opts.Observe(i, p)
			}
			res, err := core.AdaptiveSolve(op, opS, core.AdaptiveOptions{
				Method:     opts.Method,
				Tol:        tol,
				MaxIter:    opts.MaxIter,
				PowerShift: core.ConservativeShift(qp, l),
				Start:      start,
				Dev:        opts.Dev,
				Observer:   observer,
				Work:       work,
				State:      &state,
			})
			if err != nil {
				return fmt.Errorf("p = %g: %w", p, err)
			}
			stats.Iterations[i] = res.Iterations
			stats.Predicted[i] = res.PredictedMatVecs
			stats.Probe[i] = res.ProbeMatVecs
			stats.Methods[i] = res.Method.String()
			escalations[ci] += res.Escalations
			if opts.Progress != nil {
				opts.Progress(i, p, res.Iterations, stats.Warm[i], stats.Methods[i])
			}
			// res.Vector aliases the worker's scratch; normalizing it to
			// concentrations in place keeps its direction, so it stays a
			// valid warm start.
			if err := core.Concentrations(res.Vector); err != nil {
				return err
			}
			gamma, err := core.ClassConcentrations(l.ChainLen(), res.Vector)
			if err != nil {
				return err
			}
			out[i] = ThresholdPoint{P: p, Gamma: gamma}
			prev = res.Vector
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %w", err)
	}
	for _, e := range escalations {
		stats.Escalations += e
	}
	return out, stats, nil
}

// LocateThresholdOpts locates the error rate p_max at which the master
// class concentration [Γ0] of a class-based landscape falls below the
// order criterion (100 × its uniform share 2^(−ν)), to within tol. It
// evaluates opts.Workers interior points of the bracket concurrently per
// round (k-section search): each round shrinks the bracket by a factor k+1
// instead of 2, so the round count drops from log₂(Δ/tol) to
// log_{k+1}(Δ/tol) while every round costs one parallel batch of reduced
// solves. Workers ≤ 1 reproduces plain bisection exactly. A tol ≤ 0
// selects 1e-5; a NaN or infinite tol is an error.
func LocateThresholdOpts(l landscape.Landscape, lo, hi, tol float64, opts SweepOptions) (float64, error) {
	phi, ok := landscape.ClassBased(l)
	if !ok {
		return 0, fmt.Errorf("harness: threshold location needs a class-based landscape, got %T", l)
	}
	if !(lo > 0 && hi > lo && hi <= 0.5) {
		return 0, fmt.Errorf("harness: invalid bracket [%g, %g]", lo, hi)
	}
	if math.IsNaN(tol) || math.IsInf(tol, 0) {
		return 0, fmt.Errorf("harness: tolerance %g must be finite", tol)
	}
	if tol <= 0 {
		tol = 1e-5
	}
	k := opts.Workers
	if k <= 0 {
		k = batch.Workers(0)
	}
	nu := len(phi) - 1
	uniformShare := math.Pow(2, -float64(nu))
	ordered := func(p float64) (bool, error) {
		red, err := errorclass.New(phi, p)
		if err != nil {
			return false, err
		}
		var res *errorclass.Result
		if opts.Method != core.SolvePower {
			res, err = red.SolveShiftInvert()
		} else {
			res, err = red.Solve()
		}
		if err != nil {
			return false, err
		}
		return res.Gamma[0] > 100*uniformShare, nil
	}
	oLo, err := ordered(lo)
	if err != nil {
		return 0, err
	}
	oHi, err := ordered(hi)
	if err != nil {
		return 0, err
	}
	if !oLo {
		return 0, fmt.Errorf("harness: lower bracket p = %g is already disordered", lo)
	}
	if oHi {
		return 0, fmt.Errorf("harness: upper bracket p = %g is still ordered", hi)
	}
	mids := make([]float64, k)
	states := make([]bool, k)
	for hi-lo > tol {
		h := (hi - lo) / float64(k+1)
		for j := 0; j < k; j++ {
			mids[j] = lo + float64(j+1)*h
		}
		err := batch.Run(k, k, func(j, _ int) error {
			om, err := ordered(mids[j])
			if err != nil {
				return err
			}
			states[j] = om
			return nil
		})
		if err != nil {
			return 0, err
		}
		// The transition lies between the last ordered and the first
		// disordered probe (the order indicator is monotone in p).
		newLo, newHi := lo, hi
		for j := 0; j < k; j++ {
			if states[j] {
				newLo = mids[j]
			} else {
				newHi = mids[j]
				break
			}
		}
		lo, hi = newLo, newHi
	}
	return (lo + hi) / 2, nil
}
