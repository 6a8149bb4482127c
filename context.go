package quasispecies

import (
	"context"

	"repro/internal/core"
)

// SolveContext is Solve with cooperative cancellation: the iteration
// checks ctx between residual evaluations and aborts with ctx.Err() when
// the context is cancelled or times out. Large-ν solves can run for
// minutes; this is the supported way to bound them.
//
// The reduced method completes in microseconds and is not interruptible;
// Lanczos and Arnoldi check between restart cycles via the same hook.
func (mo *Model) SolveContext(ctx context.Context) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	method := mo.method
	if method == MethodAuto {
		if _, ok := mo.mut.q.Uniform(); ok && mo.land.IsClassBased() {
			method = MethodReduced
		} else {
			method = MethodFmmp
		}
	}
	if method != MethodFmmp && method != MethodXmvp {
		// Reduced solves are instant; Krylov methods run few, long cycles.
		// All still honor an already-cancelled context (checked above).
		return mo.Solve()
	}

	op, err := mo.buildOperator(method)
	if err != nil {
		return nil, err
	}
	popts := core.PowerOptions{
		Tol: mo.effectiveTol(), MaxIter: mo.maxIter,
		Start: mo.fitnessStart(op),
		Dev:   mo.dev,
		Monitor: func(iter int, lambda, residual float64) bool {
			return ctx.Err() == nil
		},
	}
	if mo.useShift {
		popts.Shift = core.ConservativeShift(mo.mut.q, mo.land.l)
	}
	res, err := core.PowerIteration(op, popts)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return mo.finishSolution(res.Lambda, res.Vector, res.Iterations, res.Residual, method)
}

// buildOperator constructs the implicit operator for power-iteration
// methods.
func (mo *Model) buildOperator(method Method) (core.Operator, error) {
	switch method {
	case MethodXmvp:
		return mo.buildXmvpOperator()
	default:
		return core.NewFmmpOperator(mo.mut.q, mo.land.l, core.Right, mo.dev)
	}
}
