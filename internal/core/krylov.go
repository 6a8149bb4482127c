package core

import (
	"math"

	"repro/internal/device"
	"repro/internal/vec"
)

// Shared Krylov-subspace plumbing for the Lanczos-family solvers (the
// shift-invert outer iteration and the RitzGap probe): a
// reusable basis/tridiagonal scratch block and the single-cycle Lanczos
// three-term recurrence. Keeping the step loop in one place means every
// caller inherits the same breakdown handling.
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
// Gram–Schmidt pass (orthogonalize): two chunked sweeps over the new
// vector instead of modified Gram–Schmidt's two per basis vector, the
// second of which also returns its norm.
//
// The basis is stored unnormalized, as the step's fused tail writes it, with
// the scale s_t = 1/‖basis[t]‖ kept per vector: the normalization pass is
// folded into the next step's coefficients, the Gram–Schmidt coefficients
// and the Ritz-vector coefficients. Counting every N-vector a BLAS-1 call
// reads or writes as one stream, a step makes 6 outside the matvec: α
// reads 2, and the tail reads w, v_j and v_{j−1} and writes v_{j+1}. A
// 24-step probe of the ν = 17, σ = 2 single peak over [0.90, 1.08]·p_c
// (about one step in five reorthogonalizes: 340 of the adaptive engine's
// 1 552 probe steps on the three critical-nu17 grids) streams about 290
// vectors: 140 for the recurrence and about 150 for the
// reorthogonalizations (2j + 5 at step j), which modified Gram–Schmidt
// made about 340, and every-step full reorthogonalization about 1 400. The
// residual estimate of the probe's top Ritz pair adds 4 streams, and
// assembling its Ritz vector for the Ritz handoff about 27. The adaptive
// engine's probe stops early (ritzConverged, no streams at all), and skips
// the Gram–Schmidt pass of the step it stops on: on a warm chain point of
// those grids after about 15 steps, with about 90 streams for the
// recurrence and about 3 reorthogonalizations. The shift-invert outer loop keeps a normalized
// basis and full reorthogonalization (silanczos.go): its inner CG solves
// are accurate only to innerTol ≫ ε, outside what the ω model assumes.

// KrylovWork is reusable scratch for Lanczos-style solves: a basis of up to
// k vectors of dimension n with their scales, the tridiagonal
// coefficients, one product vector, the three ω rows of the
// partial-reorthogonalization recurrence and its Gram–Schmidt
// coefficients. Allocate once per solve slot (NewKrylovWork) and share it
// across the probes and Krylov solves of a sweep chain — repeated solves of
// the same (n, k) then allocate nothing.
type KrylovWork struct {
	basis [][]float64
	// scale holds s_t = 1/‖basis[t]‖ for the unnormalized basis that
	// lanczosSteps builds: the unit Lanczos vector is v_t = s_t·basis[t].
	scale []float64
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
	if len(kw.scale) < k {
		kw.scale = make([]float64, k)
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

// ritzVector writes the Ritz vector Σ_j y[j]·v_j = Σ_j (y[j]·s_j)·basis[j]
// of the last recurrence into dst, in one pass over the basis
// (vec.Combine).
func (kw *KrylovWork) ritzVector(dst, y []float64) {
	c := kw.coef[:len(y)]
	for j, yj := range y {
		c[j] = yj * kw.scale[j]
	}
	vec.Fill(dst, 0)
	vec.Combine(dst, kw.basis, c)
}

// orthogonalize removes from w its components along the unit vectors
// v_t = s_t·basis[t] by one blocked classical Gram–Schmidt pass and returns
// ‖w‖ of the result: vec.DotEach computes every basis[t]ᵀw in one chunked
// pass over w, scaled by s_t² to the coefficient v_tᵀw·s_t of basis[t], and
// vec.Combine subtracts Σ c_t·basis[t] in a second, summing the squares of
// the values it writes. Modified Gram–Schmidt instead reads and writes all
// of w once per basis vector. Every coefficient here comes from the same w,
// which costs accuracy when w loses most of its norm; the "twice is
// enough" repeat in lanczosSteps covers exactly that case.
func (kw *KrylovWork) orthogonalize(basis [][]float64, w []float64) float64 {
	c := kw.coef[:len(basis)]
	vec.DotEach(c, basis, w)
	for t, st := range kw.scale[:len(c)] {
		c[t] *= -(st * st)
	}
	return vec.NormFromSumSq(vec.Combine(w, basis, c), nil, w, 0)
}

const (
	// machEps is the float64 unit roundoff ε = 2⁻⁵² of the ω model.
	machEps = 0x1p-52
	// semiOrth is the semi-orthogonality level √ε = 2⁻²⁶: an estimated
	// |ω| above it triggers a reorthogonalization.
	semiOrth = 0x1p-26
	// breakdownNorm is the ‖w‖ below which the Krylov space has closed.
	breakdownNorm = 1e-300
	// scaleRange bounds the β whose inverse becomes a basis scale s_t: an
	// unnormalized vector of norm β outside [1/scaleRange, scaleRange] is
	// normalized instead, so s_t² and the entries the next step forms stay
	// far from over- and underflow.
	scaleRange = 0x1p200
)

// lanczosSteps runs up to k steps of the symmetric Lanczos recurrence on
// op, starting from the unit vector already stored in basis[0] of the
// buffers krylov(op.Dim(), k) returns. It fills alpha[0:built],
// beta[0:built-1] (beta[j] couples v_j and v_{j+1}) and the basis scales
// kw.scale[0:built], and returns built ≤ k, stopping early when the Krylov
// space closes (an invariant subspace: ‖w‖ below 1e-300) or, when stop > 0,
// before the next matvec once the top Ritz pair of T_built is resolved and
// its residual estimate is at most stop (ritzConverged). beta[built-1] is
// then that step's own norm, the β the next step would have used, and 0
// after a full run. Each step is one operator application.
//
// basis[j] holds ṽ_j = v_j/s_j. Step j applies op to it, w = W·ṽ_j, takes
// α_j = s_j²·ṽ_jᵀw, and in one fused pass writes the three-term residual
// of the unit v_j,
//
//	ṽ_{j+1} = s_j·w − (α_j·s_j)·ṽ_j − (β_{j−1}·s_{j−1})·ṽ_{j−1},
//
// straight into basis[j+1] with its squared norm β_j²; then s_{j+1} = 1/β_j.
// Simon's recurrence predicts the next row of ω from the previous two:
//
//	β_j·ω_{j+1,t} = β_t·ω_{j,t+1} + (α_t−α_j)·ω_{j,t} + β_{t−1}·ω_{j,t−1} − β_{j−1}·ω_{j−1,t} ± ε√n‖T‖
//	β_j·ω_{j+1,j} = ε·n·‖T‖,  ω_{t,t} = 1,
//
// with the roundoff term signed to grow |ω| and ‖T‖ the running maximum
// of |α_j| + β_j + β_{j−1}. When max_t |ω_{j+1,t}| exceeds √ε, ṽ_{j+1} is
// reorthogonalized against the whole basis at this step and the next, and
// those ω rows reset to ε — except on a step the stop test ends: the
// pre-pass β_j bounds the post-pass one from above, and T_{j+1}, its Ritz
// coordinates and the basis they combine do not depend on it, so a stop on
// the pre-pass estimate skips the pass. The last step stops after α: its w
// is never used. The ω rows live in kw, so a warm KrylovWork allocates
// nothing.
func (kw *KrylovWork) lanczosSteps(op Operator, k int, stop float64) int {
	n := op.Dim()
	basis, alpha, beta, w := kw.krylov(n, k)
	s := kw.scale[:k]
	s[0] = 1
	prev, cur, next := kw.omega[0], kw.omega[1], kw.omega[2]
	cur[0] = 1
	kw.reorths = 0
	nf := float64(n)
	var normT float64
	repeat := false // the step after a reorthogonalization repeats it
	for j := 0; j < k; j++ {
		v, sv := basis[j], s[j]
		op.Apply(w, v)
		alpha[j] = sv * sv * vec.Dot(v, w)
		if j+1 == k {
			beta[j] = 0
			return k
		}
		var u []float64
		var bPrev, uCoef float64
		if j > 0 {
			u, bPrev = basis[j-1], beta[j-1]
			uCoef = bPrev * s[j-1]
		}
		r := basis[j+1]
		b := vec.NormFromSumSq(vec.LanczosTail(r, w, v, u, sv, alpha[j]*sv, uCoef), nil, r, 0)
		normT = max(normT, math.Abs(alpha[j])+b+bPrev)
		reorth := repeat
		if !repeat && b >= breakdownNorm {
			// NaN estimates count as lost orthogonality.
			reorth = !(omegaRow(next, cur, prev, alpha, beta, j, b, normT, nf) <= semiOrth)
		}
		beta[j] = b
		stopping := stop > 0 && j > 0
		if reorth {
			if stopping && kw.ritzConverged(j+1, stop) {
				return j + 1
			}
			// Gram–Schmidt against the whole basis, run a second time when
			// the pass removes most of the vector: a pass that shrinks it by
			// more than 1/√2 can leave components of order
			// ε·‖before‖/‖after‖ ("twice is enough"). That happens when a
			// restart starts from an almost converged Ritz vector.
			for pass := 0; pass < 2; pass++ {
				before := b
				b = kw.orthogonalize(basis[:j+1], r)
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
			beta[j] = b
		}
		if b < breakdownNorm {
			return j + 1 // invariant subspace found
		}
		if stopping && kw.ritzConverged(j+1, stop) {
			return j + 1
		}
		if b > 1/scaleRange && b < scaleRange {
			s[j+1] = 1 / b
		} else {
			vec.Scale(r, 1/b)
			s[j+1] = 1
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

// RitzResolved is the rule for a resolved probe pair (θ₀, θ₁) from RitzGap:
// the Ritz separation clears the floating-point floor of θ₀ by a safe
// factor. The adaptive selector and qs-gap both apply it.
func RitzResolved(theta0, theta1 float64) bool {
	return theta0-theta1 > 1e-10*math.Abs(theta0)
}

// ritzConverged is the self-stopping probe's test after step m of the
// recurrence, on T_m = (alpha[:m], beta[:m-1]) with beta[m-1] the next β:
// the top Ritz pair is resolved (RitzResolved) and its residual estimate
// β_m·|y_{m−1}| is at most tol. It takes O(m) flops per bisection step and
// allocates nothing: θ₀ and θ₁ come from Sturm-count bisection
// (tridiagTop2) and |y_{m−1}| from a backward recurrence
// (ritzLastComponent). The dense Jacobi solve (tridiagEigenpairs) would
// cost up to half a ν = 17 matvec per step.
func (kw *KrylovWork) ritzConverged(m int, tol float64) bool {
	alpha, beta := kw.alpha[:m], kw.beta[:m-1]
	theta0, theta1 := tridiagTop2(alpha, beta)
	return RitzResolved(theta0, theta1) && kw.beta[m-1]*ritzLastComponent(alpha, beta, theta0) <= tol
}

// tridiagTop2 returns the two largest eigenvalues θ₀ ≥ θ₁ of the symmetric
// tridiagonal matrix with diagonal alpha (at least two entries) and
// off-diagonal beta, each bisected on Sturm counts from the Gershgorin
// interval down to about one ulp.
func tridiagTop2(alpha, beta []float64) (theta0, theta1 float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, a := range alpha {
		r := 0.0
		if i > 0 {
			r += math.Abs(beta[i-1])
		}
		if i < len(beta) {
			r += math.Abs(beta[i])
		}
		lo, hi = min(lo, a-r), max(hi, a+r)
	}
	// Widen so that an eigenvalue on the Gershgorin bound counts inside.
	pad := 0x1p-50*max(math.Abs(lo), math.Abs(hi)) + sturmPivmin
	lo, hi = lo-pad, hi+pad
	m := len(alpha)
	return sturmBisect(alpha, beta, lo, hi, m-1), sturmBisect(alpha, beta, lo, hi, m-2)
}

// sturmPivmin replaces a zero pivot of the Sturm count, as LAPACK's pivmin
// does, so no count divides by zero.
const sturmPivmin = 0x1p-1022

// sturmBisect returns the eigenvalue of ascending index r of the
// tridiagonal (alpha, beta), which lies in [lo, hi]: bisection keeps
// sturmBelow(lo) ≤ r < sturmBelow(hi) until the interval is about one ulp
// wide. NaN input gives NaN.
func sturmBisect(alpha, beta []float64, lo, hi float64, r int) float64 {
	for hi-lo > 0x1p-52*max(math.Abs(lo), math.Abs(hi)) {
		mid := lo + 0.5*(hi-lo)
		if mid == lo || mid == hi {
			break
		}
		if sturmBelow(alpha, beta, mid) <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 0.5*(hi-lo)
}

// sturmBelow counts the eigenvalues of the tridiagonal (alpha, beta) below
// x: the negative pivots of the LDLᵀ factorization of T − x·I (Sylvester's
// law of inertia).
func sturmBelow(alpha, beta []float64, x float64) int {
	count := 0
	d := 1.0
	for i, a := range alpha {
		t := a - x
		if i > 0 {
			t -= beta[i-1] * beta[i-1] / d
		}
		if math.Abs(t) < sturmPivmin {
			t = -sturmPivmin
		}
		if t < 0 {
			count++
		}
		d = t
	}
	return count
}

// ritzLastComponent returns |y_{m−1}| of the unit eigenvector y of the m×m
// tridiagonal (alpha, beta) for its largest eigenvalue theta, by the
// backward recurrence from y_{m−1} = 1: row i of (T − θ)y = 0 gives
// y_{i−1} = y_i·d_i/β_{i−1} with the pivots d_{m−1} = θ − α_{m−1} and
// d_i = θ − α_i − β_i²/d_{i+1}. The d_i are those of the LDLᵀ factorization
// of θ − T restricted to rows i…m−1, positive definite because θ exceeds
// every eigenvalue of that trailing block (interlacing), so the recurrence
// runs in its stable direction; row 0, the one that depends most on θ's
// accuracy, is never used. The result is 1/‖y‖, rescaled against overflow;
// NaN when a pivot vanishes.
func ritzLastComponent(alpha, beta []float64, theta float64) float64 {
	m := len(alpha)
	last, y, ssq := 1.0, 1.0, 1.0
	d := theta - alpha[m-1]
	for i := m - 1; i > 0; i-- {
		if i < m-1 {
			d = theta - alpha[i] - beta[i]*beta[i]/d
		}
		y *= d / beta[i-1] // y_{i−1}
		if math.Abs(y) > 0x1p500 {
			y, last, ssq = y*0x1p-500, last*0x1p-500, ssq*0x1p-1000
		}
		ssq += y * y
	}
	return last / math.Sqrt(ssq)
}
