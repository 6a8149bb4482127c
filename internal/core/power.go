package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/span"
	"repro/internal/vec"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before the residual falls below the tolerance. The
// partial result is still returned alongside it.
var ErrNoConvergence = errors.New("core: iteration budget exhausted before convergence")

// ErrStagnated is returned when a solver's stall guard sees the residual
// go a whole window of checks without improving on its best (for the power
// iteration, powerStallChecks checks without a 1e-6 relative improvement)
// while still above the tolerance. That is all the guard observes: the
// iterate may sit at the floating-point floor of the operator, or its
// residual may still be far above it and not monotone, as near the error
// threshold. The returned result holds the last iterate; the
// *ConvergenceError reports its residual next to the best one seen, and
// callers that find that residual acceptable can use the result directly.
var ErrStagnated = errors.New("core: residual stopped improving on its best above the tolerance")

// ErrBreakdown is returned when a solve's iterate collapses or leaves the
// representable range: a zero, NaN or infinite norm, or (Arnoldi) a
// non-finite Ritz residual. Nothing a further iteration does can recover
// it, so the solver stops at the first such check; the returned result
// holds the iterate it stopped on.
var ErrBreakdown = errors.New("core: iterate collapsed or left the representable range")

// PowerOptions configures the power iteration.
type PowerOptions struct {
	// Tol is the residual threshold τ: the iteration stops when
	// R(λ̃, x̃) = ‖W·x̃ − λ̃·x̃‖₂ ≤ τ for the 2-norm-normalized iterate,
	// matching the paper's stopping criterion; the residual is checked at
	// every iteration. Default 1e-13.
	Tol float64
	// MaxIter caps the number of matrix–vector products. Default 500000.
	MaxIter int
	// Shift is the spectral shift µ ≥ 0; the iteration runs on W − µI,
	// improving the rate from λ₁/λ₀ to (λ₁−µ)/(λ₀−µ). Use
	// ConservativeShift for the paper's provably safe choice. Default 0.
	Shift float64
	// Start is the starting vector; it is copied, not mutated. The paper
	// recommends diag(F)/‖diag(F)‖₁ (see FitnessStart), which the harness,
	// kron and rna pass; the root facade passes a class-projected start
	// for Right-form solves of the uniform-rate process. Default: uniform.
	Start []float64
	// Dev selects device-parallel BLAS-1 operations; nil runs serially.
	// (The operator's own device is configured on the operator.)
	Dev *device.Device
	// Monitor, when non-nil, receives (iteration, λ̃, residual) after each
	// residual check. Returning false aborts with ErrNoConvergence.
	Monitor func(iter int, lambda, residual float64) bool
	// Observer, when non-nil, receives the solve's convergence trace: one
	// Step per residual check plus lifecycle Events (start, converged,
	// stagnated, …). Unlike Monitor it cannot abort the solve. A nil
	// Observer costs nothing — no calls, no allocations.
	Observer Observer
	// Work, when non-nil, supplies reusable iterate/product scratch so
	// repeated solves of the same dimension (sweeps, batched runs)
	// allocate nothing per solve. The returned PowerResult.Vector aliases
	// the scratch iterate — copy out whatever must survive the next solve
	// that reuses the same Work. Start may alias the scratch iterate
	// (the warm-start continuation pattern) but not the product vector.
	Work *PowerWork
}

// defaultTol is the residual threshold of every eigensolver whose Tol is
// unset (≤ 0).
const defaultTol = 1e-13

// tolerance returns tol, or defaultTol when it is unset.
func tolerance(tol float64) float64 {
	if tol <= 0 {
		return defaultTol
	}
	return tol
}

// powerStallChecks is the number of consecutive residual checks without
// measurable improvement (relative 1e-6 — at the floating-point floor the
// residual is flat to machine precision, while even a barely converging
// iteration improves faster) after which PowerIteration stops with
// ErrStagnated instead of burning the remaining budget.
const powerStallChecks = 100

// PowerWork is the reusable scratch of a power iteration: the iterate and
// the operator-product vector. Allocate once per solve slot with
// NewPowerWork and pass through PowerOptions.Work.
type PowerWork struct {
	x, w []float64
}

// NewPowerWork returns scratch for dimension-n solves.
func NewPowerWork(n int) *PowerWork {
	return &PowerWork{x: device.AllocVector(n), w: device.AllocVector(n)}
}

// vectors returns the iterate and product buffers, (re)sized to n.
func (pw *PowerWork) vectors(n int) (x, w []float64) {
	if len(pw.x) != n {
		pw.x = device.AllocVector(n)
	}
	if len(pw.w) != n {
		pw.w = device.AllocVector(n)
	}
	return pw.x, pw.w
}

// PowerResult is the outcome of a power iteration.
type PowerResult struct {
	// Lambda is the dominant eigenvalue estimate of the *unshifted*
	// operator.
	Lambda float64
	// Vector is the dominant eigenvector, normalized to unit 2-norm with
	// non-negative orientation.
	Vector []float64
	// Iterations is the number of operator applications performed.
	Iterations int
	// Residual is the final ‖W·x − λ·x‖₂.
	Residual float64
	// Converged reports whether Residual ≤ Tol was reached.
	Converged bool
}

// PowerIteration computes the dominant eigenpair of op with the (optionally
// shifted) power method. For the quasispecies matrices W the dominant
// eigenvalue is simple and positive (Perron–Frobenius on a positive
// matrix), so convergence from any positive start vector is guaranteed
// (Section 3). It returns the partial result with ErrNoConvergence when
// MaxIter is exhausted.
func PowerIteration(op Operator, opts PowerOptions) (PowerResult, error) {
	n := op.Dim()
	tol := tolerance(opts.Tol)
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500000
	}
	mu := opts.Shift
	dev := opts.Dev

	var x, w []float64
	if opts.Work != nil {
		x, w = opts.Work.vectors(n)
	} else {
		x = device.AllocVector(n)
		w = device.AllocVector(n)
	}
	if err := loadStart(dev, x, opts.Start); err != nil {
		return PowerResult{}, err
	}
	led := openLedger(SolveKindPower, n, opts.Observer, mu, tol, powerStallChecks)
	sr := led.sr
	res := PowerResult{Vector: x}
	// Each iteration is one operator application and two fused passes over
	// x and w = W·x (DESIGN.md §5.10); neither pass materializes the shifted
	// product t = (W − µI)·x. Pass B writes the next iterate t/‖t‖ into w,
	// and x and w swap at the end of the iteration, so every exit before the
	// swap still returns the iterate whose λ and residual it reports.
	for iter := 1; iter <= maxIter; iter++ {
		ph := beginSpan(sr, PhaseMatvec)
		op.Apply(w, x)
		span.End(ph, int64(iter), 0)
		res.Iterations = iter
		// Pass A: Rayleigh quotient of the *shifted* operator for unit x,
		// and ‖t‖ for the normalization.
		ph = beginSpan(sr, PhaseRayleigh)
		lamShifted, nrm := dev.ShiftedDotNorm2(x, w, mu)
		span.End(ph, int64(iter), 0)
		res.Lambda = lamShifted + mu
		// Pass B: the residual of the shifted pair, which equals that of
		// the unshifted pair (Wx − λx = (W−µI)x − (λ−µ)x), and w ← t/‖t‖.
		ph = beginSpan(sr, PhaseResidual)
		r := dev.ShiftedResidualScale(x, w, mu, lamShifted, 1/nrm)
		span.End(ph, int64(iter), 0)
		res.Residual = r
		stalled := led.check(iter, res.Lambda, r)
		if opts.Monitor != nil && !opts.Monitor(iter, res.Lambda, r) {
			finish(&res, x, opts.Work)
			return res, led.fail(EventAborted, fmt.Sprintf("aborted by monitor at iteration %d", iter), iter, res.Lambda, r)
		}
		if r <= tol {
			res.Converged = true
			finish(&res, x, opts.Work)
			led.end(EventConverged, iter, res.Lambda, r)
			return res, nil
		}
		if stalled {
			finish(&res, x, opts.Work)
			return res, led.fail(EventStagnated, "", iter, res.Lambda, r)
		}
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			finish(&res, x, opts.Work)
			return res, led.fail(EventBreakdown, fmt.Sprintf("‖w‖ = %g at step %d", nrm, iter), iter, res.Lambda, r)
		}
		x, w = w, x
	}
	finish(&res, x, opts.Work)
	return res, led.fail(EventBudgetExhausted, "", res.Iterations, res.Lambda, res.Residual)
}

// beginSpan opens a core-layer span — a solve or one of its phases — when a
// recorder was installed at solve start; the disabled path is a single nil
// check, no calls.
func beginSpan(sr span.Recorder, name string) span.Handle {
	if sr == nil {
		return nil
	}
	return sr.Begin(span.LayerCore, name)
}

// finish orients the final iterate and repoints the Work scratch so the
// next solve's vectors(n) call hands the caller-visible Vector back as the
// iterate (the per-iteration swap may have exchanged x and w).
func finish(res *PowerResult, x []float64, work *PowerWork) {
	orientPositive(x)
	res.Vector = x
	if work != nil && &work.x[0] != &x[0] {
		work.x, work.w = x, work.x
	}
}

// orientPositive flips x so its absolutely largest entry is positive; of
// several entries of the largest magnitude the first decides. The maximum
// is vec.NormInf's, and the scan for its first index stops there, at the
// master sequence for a Perron vector below the error threshold.
func orientPositive(x []float64) {
	m := vec.NormInf(x)
	for _, v := range x {
		if math.Abs(v) == m {
			if v < 0 {
				vec.Scale(x, -1)
			}
			return
		}
	}
}

// ConservativeShift returns a provably safe shift µ ≤ λ_min(W) for
// W = Q·F, so subtracting µ keeps λ₀ − µ the dominant eigenvalue. For a
// uniform-rate process it is the paper's µ = (1−2p)^ν · f_min: Section 3
// shows λ_min(W) ≥ (1−2p)^ν·f_min via ‖W⁻¹‖₁ ≤ ‖F⁻¹‖₁·‖Q⁻¹‖₁. A positive
// lower bound on f_min (from Landscape.Bounds) yields a smaller, still-valid
// shift.
//
// The bound is that of the Rayleigh quotient of a symmetric form, and it
// carries over to per-site processes. Q = D·S·D⁻¹ with D diagonal and S
// symmetric with smallest eigenvalue s = q.SpectralFloor() (Π_k(A_k+D_k−1)
// over the factors [[A_k,B_k],[C_k,D_k]], (1−2p)^ν for the uniform
// process), so W = D·(S·F)·D⁻¹ is similar to F^½·S·F^½ and
//
//	xᵀF^½·S·F^½x ≥ s·‖F^½x‖² ≥ s·f_min·‖x‖².
//
// The same holds for the Symmetric form W_S = F^½·Q·F^½, which is similar
// to W; there µ is the Chebyshev filter's lower edge. Grouped processes,
// and per-site ones with a one-way factor (B_k or C_k zero) or
// A_k+D_k ≤ 1, get 0: no shift is justified.
func ConservativeShift(q *mutation.Process, f landscape.Landscape) float64 {
	s, ok := q.SpectralFloor()
	if !ok {
		return 0
	}
	fmin, _ := f.Bounds()
	return s * fmin
}

// FitnessStart returns the paper's starting vector
// s = diag(F)/‖diag(F)‖₁, chosen because the dominant eigenvector of
// W = Q·F resembles the landscape itself (the dominant eigenvector of Q
// alone is the constant vector).
func FitnessStart(f landscape.Landscape) []float64 {
	s := landscape.Materialize(f)
	vec.Normalize1(s)
	return s
}

// UpperBoundLambda returns the paper's bound λ₀ ≤ ‖W‖₁ ≤ f_max.
func UpperBoundLambda(f landscape.Landscape) float64 {
	_, fmax := f.Bounds()
	return fmax
}

// DefaultTolerance returns a residual tolerance matched to the attainable
// floating-point floor of the problem: ‖W·x − λx‖₂ for a unit-norm x
// cannot reliably drop below ≈ ε·‖W‖·√N of accumulated rounding, so the
// default is max(1e−12, 64·ε·f_max·√N). Pass an explicit tolerance to
// override.
func DefaultTolerance(f landscape.Landscape) float64 {
	_, fmax := f.Bounds()
	floor := 64 * 2.220446049250313e-16 * fmax * math.Sqrt(float64(f.Dim()))
	return math.Max(1e-12, floor)
}
