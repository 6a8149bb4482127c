package core

import (
	"math"

	"repro/internal/device"
	"repro/internal/vec"
)

// Shared Krylov-subspace plumbing for the Lanczos-family solvers (Lanczos
// restarts, the shift-invert outer iteration, and the RitzGap probe): a
// reusable basis/tridiagonal scratch block and the single-cycle Lanczos
// three-term recurrence. Keeping the step loop in one place means every
// caller inherits the same breakdown handling and the same memory
// trade-off accounting.
//
// The recurrence keeps its basis semi-orthogonal by partial
// reorthogonalization (H. D. Simon, "The Lanczos algorithm with partial
// reorthogonalization", Math. Comp. 42, 1984). In exact arithmetic the
// three-term recurrence alone keeps the basis orthogonal; in floating point
// orthogonality is lost along Ritz vectors as they converge. Simon shows
// that |vᵢᵀvⱼ| ≤ √ε is enough for the tridiagonal's eigenvalues to be Ritz
// values accurate to working precision, and that a scalar recurrence
// (ω_{j,t} ≈ v_jᵀv_t, O(j) flops per step) tracks the loss closely. So a
// step reorthogonalizes against the whole basis only when the estimate
// crosses √ε — and then once more at the next step, because the vector
// the recurrence pairs it with still carries the lost components — instead
// of every step. A reorthogonalization is one blocked classical
// Gram–Schmidt pass (orthogonalize): two chunked sweeps over w instead of
// modified Gram–Schmidt's two per basis vector. Counting every N-vector a
// BLAS-1 call reads or writes as one stream, a 24-step probe of the ν = 17,
// σ = 2 single peak over [0.90, 1.08]·p_c (about 5 of 23 steps
// reorthogonalize) streams about 340 vectors: 186 for the recurrence and
// about 150 for the reorthogonalizations, which modified Gram–Schmidt
// made about 340, and every-step full reorthogonalization about 1 400. The
// residual estimate of the probe's top Ritz pair adds 4 streams, and
// assembling its Ritz vector for the Ritz handoff about 27. The
// shift-invert outer loop keeps full reorthogonalization (silanczos.go):
// its inner CG solves are accurate only to innerTol ≫ ε, outside what the
// ω model assumes.

// KrylovWork is reusable scratch for Lanczos-style solves: a basis of up to
// k vectors of dimension n, the tridiagonal coefficients, one product
// vector, the three ω rows of the partial-reorthogonalization recurrence
// and its Gram–Schmidt coefficients. Allocate once per solve slot
// (NewKrylovWork) and share it across the probes and Krylov solves of a
// sweep chain — repeated solves of the same (n, k) then allocate nothing.
type KrylovWork struct {
	basis [][]float64
	alpha []float64
	beta  []float64
	w     []float64
	// omega holds the ω rows j−1, j and j+1 of the current step, k+1
	// entries each; lanczosSteps rotates them.
	omega [3][]float64
	// coef holds the Gram–Schmidt coefficients of a reorthogonalization.
	coef []float64
	// reorths counts the steps of the last lanczosSteps run that
	// reorthogonalized.
	reorths int
}

// NewKrylovWork returns empty scratch; buffers are sized lazily on first
// use, so one KrylovWork serves probes and solves with different basis
// sizes.
func NewKrylovWork(n int) *KrylovWork {
	_ = n // sizing is lazy; the parameter documents intent at call sites
	return &KrylovWork{}
}

// krylov returns the basis, coefficient, and product buffers (re)sized for
// a k-step dimension-n recurrence, and sizes the ω rows to match.
func (kw *KrylovWork) krylov(n, k int) (basis [][]float64, alpha, beta, w []float64) {
	if len(kw.basis) < k {
		nb := make([][]float64, k)
		copy(nb, kw.basis)
		kw.basis = nb
	}
	for i := 0; i < k; i++ {
		if len(kw.basis[i]) != n {
			kw.basis[i] = device.AllocVector(n)
		}
	}
	if len(kw.alpha) < k {
		kw.alpha = make([]float64, k)
	}
	if len(kw.beta) < k {
		kw.beta = make([]float64, k)
	}
	if len(kw.w) != n {
		kw.w = device.AllocVector(n)
	}
	for i := range kw.omega {
		if len(kw.omega[i]) < k+1 {
			kw.omega[i] = make([]float64, k+1)
		}
	}
	if len(kw.coef) < k {
		kw.coef = make([]float64, k)
	}
	return kw.basis[:k], kw.alpha[:k], kw.beta[:k], kw.w
}

// ritzVector writes the Ritz vector Σ_j y[j]·basis[j] of the last
// recurrence into dst, in one pass over the basis (vec.Combine).
func (kw *KrylovWork) ritzVector(dst, y []float64) {
	vec.Fill(dst, 0)
	vec.Combine(dst, kw.basis, y)
}

// orthogonalize removes from w its components along basis by one blocked
// classical Gram–Schmidt pass: vec.DotEach computes every coefficient
// c_t = v_tᵀw in one chunked pass over w, and vec.Combine subtracts
// Σ c_t·v_t in a second. Modified Gram–Schmidt instead reads and writes all
// of w once per basis vector. Every coefficient here comes from the same w,
// which costs accuracy when w loses most of its norm; the "twice is
// enough" repeat in lanczosSteps covers exactly that case.
func (kw *KrylovWork) orthogonalize(basis [][]float64, w []float64) {
	c := kw.coef[:len(basis)]
	vec.DotEach(c, basis, w)
	for t := range c {
		c[t] = -c[t]
	}
	vec.Combine(w, basis, c)
}

const (
	// machEps is the float64 unit roundoff ε = 2⁻⁵² of the ω model.
	machEps = 0x1p-52
	// semiOrth is the semi-orthogonality level √ε = 2⁻²⁶: an estimated
	// |ω| above it triggers a reorthogonalization.
	semiOrth = 0x1p-26
	// breakdownNorm is the ‖w‖ below which the Krylov space has closed.
	breakdownNorm = 1e-300
)

// lanczosSteps runs up to k steps of the symmetric Lanczos recurrence on
// op, starting from the unit vector already stored in basis[0] of the
// buffers krylov(op.Dim(), k) returns. It fills alpha[0:built] and
// beta[0:built-1] (beta[j] couples basis[j] and basis[j+1]) and returns
// built ≤ k, stopping early when the Krylov space closes (an invariant
// subspace: ‖w‖ below 1e-300). beta[built-1] is then that step's own
// norm, and 0 after a full run. matvecs, when non-nil, is incremented once
// per operator application.
//
// Step j applies op, takes α_j = v_jᵀw, and in one fused pass forms
// w ← w − α_j·v_j − β_{j−1}·v_{j−1} with its squared norm. Simon's
// recurrence then predicts the next row of ω from the previous two:
//
//	β_j·ω_{j+1,t} = β_t·ω_{j,t+1} + (α_t−α_j)·ω_{j,t} + β_{t−1}·ω_{j,t−1} − β_{j−1}·ω_{j−1,t} ± ε√n‖T‖
//	β_j·ω_{j+1,j} = ε·n·‖T‖,  ω_{t,t} = 1,
//
// with the roundoff term signed to grow |ω| and ‖T‖ the running maximum
// of |α_j| + β_j + β_{j−1}. When max_t |ω_{j+1,t}| exceeds √ε, w is
// reorthogonalized against the whole basis at this step and the next, and
// those ω rows reset to ε. The last step stops after α: its w is never
// used. The ω rows live in kw, so a warm KrylovWork allocates nothing.
func (kw *KrylovWork) lanczosSteps(op Operator, k int, matvecs *int) int {
	n := op.Dim()
	basis, alpha, beta, w := kw.krylov(n, k)
	prev, cur, next := kw.omega[0], kw.omega[1], kw.omega[2]
	cur[0] = 1
	kw.reorths = 0
	nf := float64(n)
	var normT float64
	repeat := false // the step after a reorthogonalization repeats it
	for j := 0; j < k; j++ {
		v := basis[j]
		op.Apply(w, v)
		if matvecs != nil {
			*matvecs++
		}
		alpha[j] = vec.Dot(v, w)
		if j+1 == k {
			beta[j] = 0
			return k
		}
		var u []float64
		var bPrev float64
		if j > 0 {
			u, bPrev = basis[j-1], beta[j-1]
		}
		ssq := vec.LanczosTail(w, v, u, alpha[j], bPrev)
		b := math.Sqrt(ssq)
		if !(ssq >= 0x1p-900 && ssq <= 0x1p900) {
			// The unscaled sum under- or overflowed (or is 0 or NaN):
			// rescale so the breakdown test sees the true norm.
			b = vec.Norm2(w)
		}
		normT = max(normT, math.Abs(alpha[j])+b+bPrev)
		reorth := repeat
		if !repeat && b >= breakdownNorm {
			// NaN estimates count as lost orthogonality.
			reorth = !(omegaRow(next, cur, prev, alpha, beta, j, b, normT, nf) <= semiOrth)
		}
		if reorth {
			// Gram–Schmidt against the whole basis, run a second time when
			// the pass removes most of w: a pass that shrinks w by more
			// than 1/√2 can leave components of order
			// ε·‖w_before‖/‖w_after‖ ("twice is enough"). That happens
			// when a restart starts from an almost converged Ritz vector.
			for pass := 0; pass < 2; pass++ {
				before := b
				kw.orthogonalize(basis[:j+1], w)
				b = vec.Norm2(w)
				if b > before/math.Sqrt2 {
					break
				}
			}
			for t := 0; t <= j; t++ {
				next[t] = machEps
			}
			next[j+1] = 1
			repeat = !repeat
			kw.reorths++
		}
		beta[j] = b
		if b < breakdownNorm {
			return j + 1 // invariant subspace found
		}
		inv := 1 / b
		dst := basis[j+1]
		for i, x := range w {
			dst[i] = x * inv
		}
		prev, cur, next = cur, next, prev
	}
	return k
}

// omegaRow fills next[0:j+2] with Simon's estimates ω_{j+1,t} from the
// rows cur (ω_{j,·}) and prev (ω_{j−1,·}), for a step whose new
// off-diagonal is b and whose running tridiagonal norm is normT, and
// returns max_{t≤j} |ω_{j+1,t}| (NaN if any estimate is NaN).
func omegaRow(next, cur, prev, alpha, beta []float64, j int, b, normT, n float64) float64 {
	roundoff := machEps * math.Sqrt(n) * normT
	worst := 0.0
	for t := 0; t < j; t++ {
		x := beta[t]*cur[t+1] + (alpha[t]-alpha[j])*cur[t] - beta[j-1]*prev[t]
		if t > 0 {
			x += beta[t-1] * cur[t-1]
		}
		x = (x + math.Copysign(roundoff, x)) / b
		next[t] = x
		worst = max(worst, math.Abs(x))
	}
	next[j] = machEps * n * normT / b
	next[j+1] = 1
	return max(worst, next[j])
}
