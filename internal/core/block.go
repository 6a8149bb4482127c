package core

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// This file adds the multi-vector solver machinery on top of the batched
// Fmmp kernel (mutation.ApplyBatch): an operator interface for pushing K
// vectors through W in one shared stage traversal, one-pass residual
// verification of many candidate eigenpairs (how the sweep engine
// cross-checks a whole sweep), and a block power iteration (orthogonal
// simultaneous iteration) that advances K iterates per traversal — the
// multi-vector analogue of the paper's Pi(Fmmp).

// BatchApplier is an Operator that can apply itself to K vectors in one
// shared traversal. Implementations must produce results bit-identical to
// K separate Apply calls; dst[j] may alias src[j].
type BatchApplier interface {
	Operator
	// ApplyBatch computes dst[j] ← A·src[j] for every j.
	ApplyBatch(dst, src [][]float64)
}

// ApplyBatch computes dst[j] ← W·src[j] for every j with one shared
// butterfly traversal per stage group (mutation.ApplyBatch); the
// per-vector diagonal scalings of the formulation are applied around it.
// Results are bit-identical to per-vector Apply.
func (op *FmmpOperator) ApplyBatch(dst, src [][]float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("core: ApplyBatch got %d dst but %d src vectors", len(dst), len(src)))
	}
	n := op.Dim()
	for j := range src {
		if len(dst[j]) != n || len(src[j]) != n {
			panic("core: FmmpOperator.ApplyBatch dimension mismatch")
		}
	}
	switch op.Form {
	case Right: // Q·F: scale each vector, then one batched transform
		for j := range src {
			mulInto(op.Dev, dst[j], src[j], op.fdiag)
		}
		op.applyQBatch(dst)
	case Symmetric: // F^½·Q·F^½
		for j := range src {
			mulInto(op.Dev, dst[j], src[j], op.fsqrt)
		}
		op.applyQBatch(dst)
		for j := range dst {
			mulInto(op.Dev, dst[j], dst[j], op.fsqrt)
		}
	case Left: // F·Q
		for j := range src {
			if &dst[j][0] != &src[j][0] {
				copyInto(op.Dev, dst[j], src[j])
			}
		}
		op.applyQBatch(dst)
		for j := range dst {
			mulInto(op.Dev, dst[j], dst[j], op.fdiag)
		}
	default:
		panic(fmt.Sprintf("core: unknown formulation %d", op.Form))
	}
}

func (op *FmmpOperator) applyQBatch(vs [][]float64) {
	if op.Dev != nil {
		op.Q.ApplyBatchDevice(op.Dev, vs)
	} else {
		op.Q.ApplyBatch(vs)
	}
}

// batchApply computes dst[j] ← A·src[j], through the operator's batched
// path when it has one.
func batchApply(op Operator, dst, src [][]float64) {
	if ba, ok := op.(BatchApplier); ok {
		ba.ApplyBatch(dst, src)
		return
	}
	for j := range src {
		op.Apply(dst[j], src[j])
	}
}

// BatchResiduals evaluates the paper's accuracy measure
// R(λ̃ⱼ, x̃ⱼ) = ‖W·x̃ⱼ − λ̃ⱼ·x̃ⱼ‖₂ for K candidate eigenpairs with a single
// batched operator pass — the sweep engine's end-of-run verification.
// scratch, when non-nil, must hold K vectors of the operator dimension and
// is overwritten; nil allocates internally.
func BatchResiduals(op Operator, lambdas []float64, xs, scratch [][]float64) ([]float64, error) {
	if len(lambdas) != len(xs) {
		return nil, fmt.Errorf("core: %d eigenvalues but %d vectors", len(lambdas), len(xs))
	}
	n := op.Dim()
	for j := range xs {
		if len(xs[j]) != n {
			return nil, fmt.Errorf("core: vector %d has length %d, want %d", j, len(xs[j]), n)
		}
	}
	if scratch == nil {
		scratch = make([][]float64, len(xs))
		for j := range scratch {
			scratch[j] = device.AllocVector(n)
		}
	} else if len(scratch) < len(xs) {
		return nil, fmt.Errorf("core: %d scratch vectors for %d candidates", len(scratch), len(xs))
	} else {
		for j := range xs {
			if len(scratch[j]) != n {
				return nil, fmt.Errorf("core: scratch vector %d has length %d, want %d", j, len(scratch[j]), n)
			}
		}
	}
	batchApply(op, scratch[:len(xs)], xs)
	out := make([]float64, len(xs))
	for j := range xs {
		var s float64
		lam := lambdas[j]
		x, w := xs[j], scratch[j]
		for i, wi := range w {
			r := wi - lam*x[i]
			s += r * r
		}
		out[j] = math.Sqrt(s)
	}
	return out, nil
}

// BlockPowerResult is the outcome of a block power iteration.
type BlockPowerResult struct {
	// Lambdas holds the leading eigenvalue estimates, dominant first.
	Lambdas []float64
	// Vectors holds the corresponding orthonormal eigenvector estimates.
	Vectors [][]float64
	// Iterations is the number of batched operator applications.
	Iterations int
	// Residuals holds the final per-pair ‖A·xⱼ − λⱼ·xⱼ‖₂.
	Residuals []float64
	// Converged reports whether every residual reached the tolerance.
	Converged bool
}

// BlockPowerIteration computes the k dominant eigenpairs of a *symmetric*
// operator by orthogonal simultaneous iteration: all k iterates advance
// through one batched operator application per step (a single shared
// butterfly traversal for Fmmp-backed operators), followed by modified
// Gram–Schmidt re-orthonormalization in fixed column order, so the result
// is deterministic. For the quasispecies matrices use the Symmetric
// formulation F^½·Q·F^½, whose spectrum equals that of Q·F; the leading
// two values give the spectral gap λ₁/λ₀ that governs power-iteration
// cost near the error threshold. opts.Start, when set, seeds the first
// column; remaining columns start from deterministic independent vectors.
func BlockPowerIteration(op Operator, k int, opts PowerOptions) (*BlockPowerResult, error) {
	n := op.Dim()
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: block width %d outside [1, %d]", k, n)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-11
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500000
	}

	X := make([][]float64, k)
	W := make([][]float64, k)
	for j := range X {
		X[j] = device.AllocVector(n)
		W[j] = device.AllocVector(n)
		for i := range X[j] {
			// Deterministic, pairwise independent starts with overlap on
			// every coordinate (cf. SecondEigenpair's start).
			X[j][i] = 1 + 0.5*math.Sin(float64((j+1)*(3*i+1)))
		}
	}
	if opts.Start != nil {
		if len(opts.Start) != n {
			return nil, fmt.Errorf("core: start vector length %d, want %d", len(opts.Start), n)
		}
		copy(X[0], opts.Start)
	}
	if err := orthonormalize(X); err != nil {
		return nil, err
	}

	sr := span.Installed()
	sp := beginSpan(sr, SolveKindBlockPower)
	if opts.Observer != nil {
		notifyMethod(opts.Observer, SolveKindBlockPower)
		opts.Observer.Event(EventStart, 0, 0, 0)
	}
	res := &BlockPowerResult{
		Lambdas:   make([]float64, k),
		Residuals: make([]float64, k),
	}
	bestWorst := math.Inf(1)
	bestIter := 0
	worst := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		ph := beginSpan(sr, PhaseMatvec)
		batchApply(op, W, X)
		span.End(ph, int64(iter), int64(k))
		res.Iterations = iter
		worst = 0.0
		ph = beginSpan(sr, PhaseResidual)
		for j := 0; j < k; j++ {
			theta := vec.Dot(X[j], W[j]) // Rayleigh quotient, ‖X[j]‖₂ = 1
			res.Lambdas[j] = theta
			var s float64
			for i, wi := range W[j] {
				r := wi - theta*X[j][i]
				s += r * r
			}
			res.Residuals[j] = math.Sqrt(s)
			if res.Residuals[j] > worst {
				worst = res.Residuals[j]
			}
		}
		span.End(ph, int64(iter), int64(k))
		if sr != nil {
			sr.Check(1, worst, "")
		}
		if opts.Observer != nil {
			// Step reports the dominant estimate and the worst residual of
			// the block — the pair that bounds overall convergence.
			opts.Observer.Step(iter, res.Lambdas[0], worst)
		}
		if worst < bestWorst {
			bestWorst = worst
			bestIter = iter
		}
		if worst <= tol {
			res.Converged = true
			break
		}
		ph = beginSpan(sr, PhaseOrthonormalize)
		err := orthonormalize(W)
		span.End(ph, int64(iter), int64(k))
		if err != nil {
			powerDone(sr, sp, opts.Observer, EventBreakdown, n, iter, res.Lambdas[0], worst)
			return res, fmt.Errorf("core: block iteration broke down at step %d: %w", iter, err)
		}
		X, W = W, X
	}
	for j := range X {
		orientPositive(X[j])
	}
	res.Vectors = X
	if !res.Converged {
		powerDone(sr, sp, opts.Observer, EventBudgetExhausted, n, res.Iterations, res.Lambdas[0], worst)
		return res, &ConvergenceError{
			Reason: ErrNoConvergence, Method: SolveKindBlockPower,
			Iterations: res.Iterations, Residual: maxSlice(res.Residuals), BestResidual: bestWorst,
			SinceImprovement: res.Iterations - bestIter, Shift: opts.Shift, Tol: tol,
		}
	}
	powerDone(sr, sp, opts.Observer, EventConverged, n, res.Iterations, res.Lambdas[0], worst)
	return res, nil
}

// orthonormalize runs modified Gram–Schmidt over the vectors in index
// order, normalizing each to unit 2-norm.
func orthonormalize(vs [][]float64) error {
	for j := range vs {
		for t := 0; t < j; t++ {
			vec.AXPY(-vec.Dot(vs[t], vs[j]), vs[t], vs[j])
		}
		nrm := vec.Norm2(vs[j])
		if nrm < 1e-300 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			return fmt.Errorf("core: basis vector %d collapsed (‖v‖ = %g)", j, nrm)
		}
		vec.Scale(vs[j], 1/nrm)
	}
	return nil
}

func maxSlice(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
