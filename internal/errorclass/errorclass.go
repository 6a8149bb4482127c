// Package errorclass implements the exact problem reduction of Section 5.1:
// for fitness landscapes that depend only on the Hamming distance to the
// master sequence (fᵢ = ϕ(dH(i,0))), the N×N eigenproblem for W = Q·F
// reduces *exactly* — not approximately, as in the earlier literature — to
// a (ν+1)×(ν+1) problem built from the reduced mutation matrix
//
//	QΓ[d][k] = Σ_j C(ν−d, k−j)·C(d, j)·p^(k+d−2j)·(1−p)^(ν−(k+d−2j))   (Eq. 14)
//
// (the probability that a fixed molecule of error class Γ_d mutates into
// any molecule of class Γ_k). Lemma 2 shows W maps error-class vectors to
// error-class vectors, so the dominant eigenvector of the full problem is
// an error-class vector and can be recovered from the reduced one; the
// cumulative concentrations follow from the rescaling
//
//	[Γ_k] = C(ν,k)·vΓ_k / Σ_j C(ν,j)·vΓ_j,
//
// which accounts for the reduced eigenvector holding *representative*
// concentrations, not class totals.
//
// Because the reduction never touches the 2^ν space, it works for chain
// lengths far beyond dense storage (ν in the thousands).
//
// The same reduction serves any alphabet of a letters under the
// Jukes–Cantor process (NewAlphabet; the four-letter RNA alphabet of
// Section 5.2 is a = 4): a correct position goes wrong with probability p,
// a wrong one returns to the master letter with probability p/(a−1), and
// class Γ_k has C(ν,k)·(a−1)^k members. New is the paper's binary case.
//
// The reduction has one eigensolver, Solve/SolveFrom: the dense power
// method in class-total coordinates.
package errorclass

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/vec"
)

// MaxChainLen bounds ν for the reduction; (ν+1)² dense work stays trivial
// far beyond any biologically meaningful chain length.
const MaxChainLen = 1 << 14

// Reduction is the reduced (ν+1)×(ν+1) eigenproblem for an error-class
// landscape ϕ at error rate p over an alphabet of a letters.
type Reduction struct {
	nu  int
	a   int
	p   float64
	phi []float64
	// w is the reduced matrix W̃[d][k] = QΓ[d][k]·ϕ(k).
	w *dense.Matrix
	// qGamma is the reduced mutation matrix QΓ.
	qGamma *dense.Matrix
}

// ReducedQ returns the reduced mutation matrix QΓ for chain length nu,
// alphabet size a and Jukes–Cantor error rate p (Eq. 14 for a = 2). Row
// d, column k is the probability that a fixed sequence of class Γ_d
// mutates into any sequence of class Γ_k: of its d wrong positions j stay
// wrong (each with probability 1−p/(a−1)) and d−j return (p/(a−1)), and
// k−j of its ν−d correct positions go wrong (p each).
func ReducedQ(nu, a int, p float64) (*dense.Matrix, error) {
	if nu < 0 || nu > MaxChainLen {
		return nil, fmt.Errorf("errorclass: chain length %d out of range [0,%d]", nu, MaxChainLen)
	}
	if a < 2 {
		return nil, fmt.Errorf("errorclass: alphabet size %d must be at least 2", a)
	}
	if !(p > 0 && p <= float64(a-1)/float64(a)) {
		return nil, fmt.Errorf("errorclass: error rate p = %g outside (0, %d/%d]", p, a-1, a)
	}
	m := dense.NewMatrix(nu+1, nu+1)
	// log-space accumulation keeps entries finite for very long chains,
	// where C(ν,·) overflows float64 mid-product.
	logP, logQ := math.Log(p), math.Log1p(-p) // log(1−p)
	// The alphabet's corrections to the binary term, both exactly 0 at
	// a = 2: a returning position has probability p/(a−1), not p, and a
	// wrong position that stays wrong 1−p/(a−1), not 1−p.
	logA1 := math.Log(float64(a - 1))
	logStay := math.Log1p(-p/float64(a-1)) - logQ
	logFact := make([]float64, nu+2)
	for i := 2; i <= nu+1; i++ {
		logFact[i] = logFact[i-1] + math.Log(float64(i))
	}
	logBin := func(n, k int) float64 {
		if k < 0 || k > n {
			return math.Inf(-1)
		}
		return logFact[n] - logFact[k] - logFact[n-k]
	}
	for d := 0; d <= nu; d++ {
		for k := 0; k <= nu; k++ {
			lo := k + d - nu
			if lo < 0 {
				lo = 0
			}
			hi := k
			if d < hi {
				hi = d
			}
			var sum float64
			for j := lo; j <= hi; j++ {
				h := k + d - 2*j // Hamming distance of this transition
				logTerm := logBin(nu-d, k-j) + logBin(d, j) +
					float64(h)*logP + float64(nu-h)*logQ -
					float64(d-j)*logA1 + float64(j)*logStay
				sum += math.Exp(logTerm)
			}
			m.Set(d, k, sum)
		}
	}
	return m, nil
}

// New builds the binary reduction for the class fitness table phi (length
// ν+1, all positive) and error rate p ∈ (0, 1/2].
func New(phi []float64, p float64) (*Reduction, error) {
	return NewAlphabet(2, phi, p)
}

// NewAlphabet builds the reduction over an alphabet of a ≥ 2 letters for
// the class fitness table phi (length ν+1, all positive) and Jukes–Cantor
// error rate p ∈ (0, (a−1)/a].
func NewAlphabet(a int, phi []float64, p float64) (*Reduction, error) {
	nu := len(phi) - 1
	if nu < 0 {
		return nil, errors.New("errorclass: empty ϕ table")
	}
	for k, v := range phi {
		if v <= 0 {
			return nil, fmt.Errorf("errorclass: ϕ(%d) = %g must be positive", k, v)
		}
	}
	qg, err := ReducedQ(nu, a, p)
	if err != nil {
		return nil, err
	}
	w := qg.Clone()
	w.ScaleColumns(phi)
	cp := make([]float64, len(phi))
	copy(cp, phi)
	return &Reduction{nu: nu, a: a, p: p, phi: cp, w: w, qGamma: qg}, nil
}

// ChainLen returns ν.
func (r *Reduction) ChainLen() int { return r.nu }

// Matrix returns the reduced matrix W̃ = QΓ·diag(ϕ) (a copy).
func (r *Reduction) Matrix() *dense.Matrix { return r.w.Clone() }

// Result is the solved reduced eigenproblem.
type Result struct {
	// Lambda is the dominant eigenvalue — identical to that of the full
	// N×N problem.
	Lambda float64
	// ClassVector is vΓ, the reduced eigenvector of representative
	// concentrations, normalized to Σ vΓ_k = 1.
	ClassVector []float64
	// Gamma holds the cumulative class concentrations [Γ_k] obtained by
	// the class-size rescaling; Σ [Γ_k] = 1.
	Gamma []float64
	// Iterations used by the dense eigensolver.
	Iterations int
}

// Solve computes the dominant eigenpair of the reduced problem with the
// dense power method (the matrix is (ν+1)² — trivially small).
//
// Numerically the iteration runs on the similarity-transformed matrix
// M = D·W̃·D⁻¹ with D = diag(|Γ_k|), which by the symmetry
// |Γ_d|·QΓ[d][k] = |Γ_k|·QΓ[k][d] equals QΓᵀ·diag(ϕ). Its dominant
// eigenvector is the class-total distribution [Γ_k] directly. This is the
// same mathematics as the paper's representative-form rescaling, but it
// avoids amplifying the eigensolver's round-off floor by C(ν,ν/2) — which
// reaches 10^299 at ν = 1000 and would otherwise drown the true tail of
// the distribution.
//
// This is the reduction's one eigensolver. From a non-negative start the
// power iterate stays in the cone of the non-negative M, so it reaches
// the Perron pair at every ν and p. Near the error threshold λ₁/λ₀ → 1
// and the solve takes more iterations, but it never locks onto another
// pair.
func (r *Reduction) Solve() (*Result, error) {
	return r.SolveFrom(nil)
}

// SolveFrom is Solve seeded with a starting guess in Γ space — typically
// the Gamma vector of a neighboring error rate's solution. Because the
// iteration runs on M = QΓᵀ·diag(ϕ) whose dominant eigenvector IS the
// class-total distribution, a previous point's Gamma is exactly the right
// warm start for a monotone p-sweep; the batched sweep engine uses it for
// its continuation chains. A nil start falls back to the uniform vector.
func (r *Reduction) SolveFrom(start []float64) (*Result, error) {
	n := r.nu + 1
	m := r.qGamma.Transpose()
	m.ScaleColumns(r.phi)
	if start == nil {
		start = make([]float64, n)
		vec.Fill(start, 1/float64(n))
	} else if len(start) != n {
		return nil, fmt.Errorf("errorclass: start vector length %d, want %d", len(start), n)
	}
	lam, u, iters, err := dense.Dominant(m, &dense.DominantOptions{
		Tol: 1e-14, MaxIter: 5000000, Start: start,
	})
	if err != nil {
		return nil, fmt.Errorf("errorclass: reduced eigensolve failed: %w", err)
	}
	// u is a Perron vector: clamp round-off and normalize to Σ[Γk] = 1.
	for i, x := range u {
		if x < 0 {
			if x < -1e-9 {
				return nil, fmt.Errorf("errorclass: reduced eigenvector entry %d = %g is negative", i, x)
			}
			u[i] = 0
		}
	}
	vec.Normalize1(u)
	res := &Result{Lambda: lam, Gamma: u, Iterations: iters}
	// Representative concentrations vΓ_k = [Γ_k]/|Γ_k|; entries may
	// underflow to zero for very long chains, where only Gamma is
	// representable in float64.
	v := make([]float64, n)
	for k := range v {
		v[k] = u[k] / (bits.BinomialFloat(r.nu, k) * math.Pow(float64(r.a-1), float64(k)))
	}
	vec.Normalize1(v)
	res.ClassVector = v
	return res, nil
}

// MaxExpandChainLen bounds ν for Expand: 2^30 float64 entries are 8 GiB,
// and the facade leaves a longer chain's concentrations unmaterialized.
const MaxExpandChainLen = 30

// tileBits is the class expansion's tile: the low tileBits bits of an
// index, whose weights loWeight tabulates.
const tileBits = 12

// loWeight[j] is the Hamming weight of j.
var loWeight = func() (t [1 << tileBits]uint8) {
	for j := range t {
		t[j] = uint8(bits.Weight(uint64(j)))
	}
	return t
}()

// Expand materializes the full 2^ν eigenvector from a binary reduction:
// x[i] = vΓ_{dH(i,0)}, normalized to Σ xᵢ = 1 so it is directly the
// quasispecies concentration vector of the Right formulation. Θ(N)
// memory — requires ν ≤ MaxExpandChainLen. It rejects a class vector with
// a negative or non-finite entry, or one that sums to zero, before it
// allocates, and one whose expansion's sum overflows.
//
// The result is bit for bit vec.Normalize1 of the per-element fill
// x[i] = vΓ_{w(i)}: each xᵢ is vΓ_{w(i)}·(1/S), with S that fill's Norm1.
// Split i = q·T + j with T = 2^min(ν, tileBits): w(i) = w(q) + w(j), so
// output tile q is tile_{w(q)}, with tile_h[j] = vΓ_{h+w(j)}. Expand fills
// the ν − tileBits + 1 distinct tiles (one, x itself, for ν ≤ tileBits)
// in place, at the first output tile of each weight, q = 2^h − 1; sums S
// from them with Norm1's lanes, output tile by output tile in index order,
// each tile a multiple of 4 long, so the lanes see Norm1's additions from
// cache-resident data; scales them by 1/S; and copies every other output
// tile from its weight's tile, so that the rest of x is written once.
func Expand(classVector []float64) ([]float64, error) {
	nu := len(classVector) - 1
	if nu < 0 {
		return nil, errors.New("errorclass: empty class vector")
	}
	if nu > MaxExpandChainLen {
		return nil, fmt.Errorf("errorclass: refusing to materialize 2^%d entries", nu)
	}
	var sum float64
	for k, v := range classVector {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("errorclass: class vector entry %d = %g is negative or not finite", k, v)
		}
		sum += v
	}
	if sum == 0 {
		return nil, errors.New("errorclass: class vector is zero")
	}
	x := make([]float64, 1<<nu)
	hi := max(nu-tileBits, 0) // the high part's bits, and its largest weight
	t := len(x) >> hi         // the tile length
	tile := func(h int) []float64 {
		lo := (1<<h - 1) * t
		return x[lo : lo+t]
	}
	for h := 0; h <= hi; h++ {
		fillTile(tile(h), classVector[h:])
	}
	var lanes [4]float64
	for q := range 1 << hi {
		vec.Norm1Lanes(&lanes, tile(bits.Weight(uint64(q))))
	}
	s := vec.FoldNorm1(&lanes, x[len(x)&^3:]) // a tail only for N < 4
	if math.IsInf(s, 1) {
		return nil, errors.New("errorclass: class expansion's sum overflows")
	}
	for h := 0; h <= hi; h++ {
		vec.Scale(tile(h), 1/s)
	}
	for q := range 1 << hi {
		if h := bits.Weight(uint64(q)); q != 1<<h-1 {
			copy(x[q*t:], tile(h))
		}
	}
	return x, nil
}

// fillTile sets t[j] = v[w(j)] for j < len(t) ≤ 2^tileBits, reading v's
// first tileBits+1 entries at most.
func fillTile(t, v []float64) {
	// The weights index a 16-entry copy of v under a mask, so the gather
	// needs no bounds check.
	var vv [16]float64
	copy(vv[:], v)
	lw := loWeight[:len(t)]
	for j, w := range lw {
		t[j] = vv[w&15]
	}
}

// ClassMeans is the adjoint of Expand: it averages a 2^ν vector over the
// Hamming classes around index 0, means[k] = Σ_{w(i)=k} xᵢ / C(ν,k). ν
// must not exceed MaxExpandChainLen. The facade projects the fitness
// diagonal with it to build the class-projected start of a full-space
// solve. The class sums are core.ClassConcentrations', which add each xᵢ
// to class w(i) in index order.
func ClassMeans(x []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("errorclass: vector length %d is not a power of two", n)
	}
	nu := bits.Weight(uint64(n - 1))
	if nu > MaxExpandChainLen {
		return nil, fmt.Errorf("errorclass: refusing to project 2^%d entries", nu)
	}
	means, err := core.ClassConcentrations(nu, x)
	if err != nil {
		return nil, err
	}
	for k := range means {
		means[k] /= bits.BinomialFloat(nu, k)
	}
	return means, nil
}
