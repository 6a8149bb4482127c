package core

import "fmt"

// Observability hooks for the eigensolvers. Every solve reports through
// one emitter, its convergence ledger (ledger.go), which feeds two
// independent mechanisms, each answering its own question:
//
//   - How did the solve converge? The Observer field of the options
//     structs is the per-solve convergence-trace hook and the one receiver
//     of residual checks: every check (iteration, λ̃, R) plus lifecycle
//     events, exactly the stream needed to plot stalls near the error
//     threshold where the spectral gap collapses. obs.TraceRecorder
//     satisfies it structurally. Arnoldi takes no Observer.
//   - Where did the time go? The process-wide span recorder
//     (internal/span): every solve opens a core-layer span named by its
//     SolveKind* (ending with its dimension and iteration count) and wraps
//     its iteration phases in spans; internal/obs profiles them.
//
// Both are nil by default; the disabled cost is a nil check (Observer) and
// one atomic pointer load per solve (span). No allocations either way —
// guarded by the alloc tests.

// Observer receives one solve's convergence trace. Step is called after
// every residual evaluation; Event marks lifecycle transitions using the
// Event* constants. An Observer is used by a single solve at a time and
// need not be safe for concurrent use.
type Observer interface {
	Step(iter int, lambda, residual float64)
	Event(event string, iter int, lambda, residual float64)
}

// Lifecycle events reported to Observer.Event.
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
	// range (‖w‖ zero, NaN or Inf; ErrBreakdown when the solver fails
	// through the ledger).
	EventBreakdown = "breakdown"
	// EventAborted: a Monitor callback requested termination.
	EventAborted = "aborted"
)

// Solve kinds: the names of the core-layer solve spans, and the method
// stamped on convergence traces and errors.
const (
	SolveKindPower       = "power"
	SolveKindLanczos     = "lanczos"
	SolveKindShiftInvert = "shift_invert"
	SolveKindChebyshev   = "chebyshev"
	SolveKindArnoldi     = "arnoldi"
)

// methodReporter is the optional Observer extension implemented by
// recorders that label their rows with the solve method (obs.TraceRecorder
// does, via its Method setter); plain observers are unaffected. The ledger
// calls it once per solve, just before the start event.
type methodReporter interface{ Method(kind string) }

// Iteration phase names reported as core-layer spans (internal/span) inside
// a solve span: one span per phase per iteration while a recorder is
// installed, nothing otherwise. These are the rows of the per-phase time
// table — the breakdown the paper's cost model talks about (matvec
// dominates; the BLAS-1 phases are the O(N) overhead around it).
const (
	PhaseMatvec    = "matvec"
	PhaseRayleigh  = "rayleigh"
	PhaseResidual  = "residual"
	PhaseNormalize = "normalize"
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
)

// ConvergenceError carries the diagnostics of a failed (or stagnated)
// power iteration: everything needed to understand a stall near the
// critical window without rerunning — the shift in effect, the best
// residual attained, and how long ago it stopped improving. It unwraps to
// ErrNoConvergence, ErrStagnated or ErrBreakdown, so errors.Is checks keep
// working.
type ConvergenceError struct {
	// Reason is the sentinel cause: ErrNoConvergence, ErrStagnated or
	// ErrBreakdown.
	Reason error
	// Method names the eigensolver that failed (a SolveKind* constant:
	// "power", "lanczos", "chebyshev", "shift_invert" or "arnoldi");
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
	// last improved (relative 1e-6; see the ledger's check).
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
