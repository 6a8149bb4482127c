package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// ledger is one solve's convergence ledger: the single place where the
// eigensolvers report progress and decide to give up. It opens the solve
// span and the observer's trace, takes every residual check (the
// observer's Step, the best residual, where it last improved and the
// stall count), emits the terminal outcome, and builds
// the *ConvergenceError of a failed solve. The solvers keep only their
// arithmetic; each passes its own iteration unit (operator applications,
// or power iterations) and its own stall rule.
//
// A ledger lives on the solver's stack: its methods take it by pointer and
// never retain it, so a solve reports without allocating. The span hook is
// loaded once at open; sr is nil when no recorder was installed, and the
// solvers reuse it for their phase spans.
type ledger struct {
	sr    span.Recorder
	sp    span.Handle
	obs   Observer
	kind  string
	dim   int
	shift float64
	tol   float64
	// stallLimit is the number of consecutive checks without improvement
	// after which check reports a stall; ≤ 0 disables the rule.
	stallLimit int

	best    float64 // smallest residual checked so far
	bestAt  int     // iteration at which best last improved
	stalled int     // consecutive checks without improvement
}

// openLedger opens a solve of the given kind on a dim-dimensional operator:
// the core-layer solve span, then the observer's method label and start
// event, whose λ carries the shift (µ, or Chebyshev's upper edge) that
// the ConvergenceError reports.
func openLedger(kind string, dim int, obs Observer, shift, tol float64, stallLimit int) ledger {
	l := ledger{
		sr: span.Installed(), obs: obs, kind: kind, dim: dim,
		shift: shift, tol: tol, stallLimit: stallLimit, best: math.Inf(1),
	}
	l.sp = beginSpan(l.sr, kind)
	if obs != nil {
		// Adaptive solves that fall through several gears on one point
		// relabel the recorder per attempt.
		if m, ok := obs.(methodReporter); ok {
			m.Method(kind)
		}
		obs.Event(EventStart, 0, shift, 0)
	}
	return l
}

// check records one residual check at iteration iter and reports whether
// the stall rule now says to stop: the residual counts as improved only
// when it falls by more than 1e-6 relative, since at the floating-point
// floor it is flat to machine precision while even a barely converging
// iteration improves faster.
func (l *ledger) check(iter int, lambda, r float64) (stalled bool) {
	if l.obs != nil {
		l.obs.Step(iter, lambda, r)
	}
	if r < l.best*(1-1e-6) {
		l.best, l.bestAt, l.stalled = r, iter, 0
	} else {
		l.stalled++
	}
	return l.stallLimit > 0 && l.stalled >= l.stallLimit
}

// end emits the terminal outcome (an Event* constant) as the observer's
// event, then closes the solve span last so the callback is charged to it.
func (l *ledger) end(outcome string, iter int, lambda, r float64) {
	if l.obs != nil {
		l.obs.Event(outcome, iter, lambda, r)
	}
	span.End(l.sp, int64(l.dim), int64(iter))
}

// fail ends the solve with outcome and returns its error: ErrStagnated for
// EventStagnated, ErrBreakdown for EventBreakdown, ErrNoConvergence
// otherwise, with detail as the context note.
func (l *ledger) fail(outcome, detail string, iter int, lambda, r float64) *ConvergenceError {
	l.end(outcome, iter, lambda, r)
	reason := ErrNoConvergence
	switch outcome {
	case EventStagnated:
		reason = ErrStagnated
	case EventBreakdown:
		reason = ErrBreakdown
	}
	return &ConvergenceError{
		Reason: reason, Method: l.kind, Detail: detail,
		Iterations: iter, Residual: r, BestResidual: l.best,
		SinceImprovement: iter - l.bestAt, Shift: l.shift, Tol: l.tol,
	}
}

// loadStart writes a solve's first iterate into x: a copy of start (a
// self-copy when start aliases x), or the uniform vector when start is
// nil, scaled to unit 2-norm serially or on dev.
func loadStart(dev *device.Device, x, start []float64) error {
	if start != nil {
		if len(start) != len(x) {
			return fmt.Errorf("core: start vector length %d, want %d", len(start), len(x))
		}
		copy(x, start)
	} else {
		vec.Fill(x, 1)
	}
	nrm := dev.Norm2(x)
	if nrm == 0 {
		return errors.New("core: start vector is zero")
	}
	dev.Scale(x, 1/nrm)
	return nil
}
