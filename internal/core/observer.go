package core

import (
	"fmt"
	"sync/atomic"
)

// Observability hooks for the eigensolvers. Two independent mechanisms:
//
//   - PowerOptions.Observer is the per-solve convergence-trace hook: it
//     receives every residual check (iteration, λ̃, R) plus lifecycle
//     events, exactly the stream needed to plot stalls near the error
//     threshold where the spectral gap collapses. obs.TraceRecorder
//     satisfies it structurally.
//   - SetSolveObserver installs a process-wide metrics hook fed by every
//     power/block-power solve (counts, iteration deltas, outcomes) — the
//     source of the qs_power_* metric families.
//
// Both are nil by default; the disabled cost is a nil check (Observer) and
// one atomic pointer load per solve plus one per residual check
// (SolveObserver). No allocations either way — guarded by the alloc tests.

// Observer receives one solve's convergence trace. Step is called after
// every residual evaluation; Event marks lifecycle transitions using the
// Event* constants. An Observer is used by a single solve at a time and
// need not be safe for concurrent use.
type Observer interface {
	Step(iter int, lambda, residual float64)
	Event(event string, iter int, lambda, residual float64)
}

// Lifecycle events reported to Observer.Event and SolveObserver.SolveDone.
const (
	// EventStart opens a solve; lambda carries the shift µ in use.
	EventStart = "start"
	// EventConverged: the residual reached the tolerance.
	EventConverged = "converged"
	// EventStagnated: the residual stopped improving above the tolerance
	// (ErrStagnated).
	EventStagnated = "stagnated"
	// EventBudgetExhausted: MaxIter reached (ErrNoConvergence).
	EventBudgetExhausted = "budget_exhausted"
	// EventBreakdown: the iterate collapsed or left the representable
	// range (‖w‖ zero, NaN or Inf).
	EventBreakdown = "breakdown"
	// EventAborted: a Monitor callback requested termination.
	EventAborted = "aborted"
)

// Solve kinds reported to the SolveObserver. The span profiler reuses them
// as the names of the core-layer solve spans.
const (
	SolveKindPower       = "power"
	SolveKindBlockPower  = "block_power"
	SolveKindLanczos     = "lanczos"
	SolveKindShiftInvert = "shift_invert"
	SolveKindChebyshev   = "chebyshev"
)

// methodReporter is the optional Observer extension implemented by
// recorders that label their rows with the solve method (obs.TraceRecorder
// does, via its Method setter); plain observers are unaffected.
type methodReporter interface{ Method(kind string) }

// notifyMethod tells an observer which solve method is about to run, when
// it implements the optional methodReporter extension. Called once per
// solve at the EventStart site — so adaptive sweeps that fall through
// several gears on one point relabel the recorder per attempt.
func notifyMethod(o Observer, kind string) {
	if m, ok := o.(methodReporter); ok {
		m.Method(kind)
	}
}

// Iteration phase names reported as core-layer spans (internal/span) inside
// a solve span: one span per phase per iteration while a recorder is
// installed, nothing otherwise. These are the rows of the per-phase time
// table — the breakdown the paper's cost model talks about (matvec
// dominates; the BLAS-1 phases are the O(N) overhead around it).
const (
	PhaseMatvec         = "matvec"
	PhaseRayleigh       = "rayleigh"
	PhaseResidual       = "residual"
	PhaseNormalize      = "normalize"
	PhaseOrthonormalize = "orthonormalize"
	// PhaseTridiag is the small projected eigensolve of the Krylov methods
	// (tridiagonal for Lanczos/shift-invert, the probe's Ritz extraction).
	PhaseTridiag = "tridiag"
	// PhaseChebPoly is one degree-d Chebyshev filter application — d
	// matrix–vector products plus the three-term recurrence updates.
	PhaseChebPoly = "cheb_poly"
	// PhaseInnerSolve is one inner CG solve of (µI − W)·y = v inside the
	// shift-invert Lanczos iteration.
	PhaseInnerSolve = "inner_solve"
	// PhaseGapProbe is the Lanczos probe of at most k steps that feeds the
	// adaptive method selector's online gap estimate.
	PhaseGapProbe = "gap_probe"
	// PhaseShiftFactor is one LU factorization of (M − λI) inside the
	// reduced-path Rayleigh-quotient iteration (errorclass emits it under
	// the core layer with this name).
	PhaseShiftFactor = "shift_factor"
)

// SolveObserver is the process-wide eigensolver metrics hook. SolveStep
// receives the iterations performed since the previous residual check, so
// accumulating it yields a live iteration counter mid-solve. Callbacks
// arrive concurrently from batched sweep workers; implementations must be
// safe for concurrent use.
type SolveObserver interface {
	SolveStart(kind string, dim int)
	SolveStep(kind string, iters int)
	SolveDone(kind string, iters int, residual float64, outcome string)
}

type solveHook struct{ o SolveObserver }

var solveObs atomic.Pointer[solveHook]

// SetSolveObserver installs o as the process-wide solve observer (nil
// uninstalls). Call at startup, not concurrently with running solves.
func SetSolveObserver(o SolveObserver) {
	if o == nil {
		solveObs.Store(nil)
		return
	}
	solveObs.Store(&solveHook{o: o})
}

// ConvergenceError carries the diagnostics of a failed (or stagnated)
// power iteration: everything needed to understand a stall near the
// critical window without rerunning — the shift in effect, the best
// residual attained, and how long ago it stopped improving. It unwraps to
// ErrNoConvergence or ErrStagnated, so errors.Is checks keep working.
type ConvergenceError struct {
	// Reason is the sentinel cause: ErrNoConvergence or ErrStagnated.
	Reason error
	// Method names the eigensolver gear that failed (a SolveKind*
	// constant: "power", "block_power", "chebyshev", "shift_invert", …);
	// "" for errors predating the field.
	Method string
	// Detail is an optional context note (e.g. the Monitor abort).
	Detail string
	// Iterations performed when the solve terminated.
	Iterations int
	// Residual at termination.
	Residual float64
	// BestResidual is the smallest residual seen over the whole solve.
	BestResidual float64
	// SinceImprovement is the number of iterations since BestResidual
	// last improved (relative 1e-6; see PowerOptions.StallChecks).
	SinceImprovement int
	// Shift is the spectral shift µ the iteration ran with.
	Shift float64
	// Tol is the requested residual tolerance.
	Tol float64
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("%v", e.Reason)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return fmt.Sprintf("%s: residual %g after %d iterations (best %g, %d iterations since improvement, shift µ=%g, tol %g)",
		msg, e.Residual, e.Iterations, e.BestResidual, e.SinceImprovement, e.Shift, e.Tol)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *ConvergenceError) Unwrap() error { return e.Reason }
