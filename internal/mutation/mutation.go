// Package mutation implements every representation of the quasispecies
// mutation matrix Q studied in the paper, together with the fast implicit
// matrix–vector products built on them:
//
//   - the entrywise definition Q[i][j] = p^dH(i,j)·(1−p)^(ν−dH(i,j))
//     (Eq. 2) and its dense materialization (the Smvp baseline);
//   - the Kronecker product representation Q(ν) = ⊗ᵢ [[1−p, p],[p, 1−p]]
//     (Eq. 7) and the Θ(N·log₂N) fast mutation matrix product Fmmp derived
//     from it (Eqs. 9–10, Algorithms 1–2), including the device-parallel
//     form with the GPU index computation j = 2·ID − (ID & (i−1));
//   - generalized processes: independent per-site 2×2 column-stochastic
//     factors and grouped 2^gᵢ×2^gᵢ factors (Eq. 11, Section 2.2);
//   - the closed-form eigendecomposition Q = V·Λ·V with V the normalized
//     Hadamard matrix (Section 2): the fast Walsh–Hadamard transform, run
//     by Fmmp's stage engine on the factor [[1, 1],[1, −1]], and the
//     Θ(N·log₂N) shift-and-invert product (Q − µI)⁻¹·v (Section 3);
//   - the sparse XOR-based product Xmvp(dmax) of the authors' earlier work
//     [Niederbrucker & Gansterer, Procedia CS 4 (2011) 126–135], which the
//     paper uses as its accuracy/performance baseline.
//
// Sequence bit convention: bit k of an index (LSB = bit 0) is sequence
// position k, and the per-position factor acting on bit k is applied by the
// butterfly stage with stride 2^k. With that convention the code realizes
// Q = M_{ν−1} ⊗ ··· ⊗ M₁ ⊗ M₀.
package mutation

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/dense"
)

// ErrInvalidRate is returned for error rates outside the model's domain.
var ErrInvalidRate = errors.New("mutation: error rate p must satisfy 0 < p ≤ 1/2")

// ValidateRate checks 0 < p ≤ ½ (the paper's admissible range; p = ½ is the
// random-replication limit and is allowed).
func ValidateRate(p float64) error {
	if !(p > 0 && p <= 0.5) {
		return fmt.Errorf("%w (got %g)", ErrInvalidRate, p)
	}
	return nil
}

// Entry returns Q[i][j] = p^dH(i,j) · (1−p)^(ν−dH(i,j)) (Eq. 2).
func Entry(nu int, p float64, i, j uint64) float64 {
	d := bits.Hamming(i, j)
	return math.Pow(p, float64(d)) * math.Pow(1-p, float64(nu-d))
}

// ClassValues returns the ν+1 distinct entries of Q,
// QΓ_k = p^k·(1−p)^(ν−k) for 0 ≤ k ≤ ν.
func ClassValues(nu int, p float64) []float64 {
	q := make([]float64, nu+1)
	for k := 0; k <= nu; k++ {
		q[k] = math.Pow(p, float64(k)) * math.Pow(1-p, float64(nu-k))
	}
	return q
}

// Dense materializes Q(ν) for the uniform error rate p as a dense matrix.
// Requires Θ(4^ν) memory — only for small ν (tests and the Smvp baseline).
func Dense(nu int, p float64) *dense.Matrix {
	n := bits.SpaceSize(nu)
	qv := ClassValues(nu, p)
	m := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < n; j++ {
			row[j] = qv[bits.Hamming(uint64(i), uint64(j))]
		}
	}
	return m
}

// Factor2 is a 2×2 single-position mutation factor in row-major order:
// [[A, B], [C, D]] with columns summing to one for a valid process.
// The uniform process uses A = D = 1−p, B = C = p.
type Factor2 struct {
	A, B, C, D float64
}

// UniformFactor returns the symmetric single-point mutation factor
// [[1−p, p], [p, 1−p]] of Eq. 7.
func UniformFactor(p float64) Factor2 {
	return Factor2{A: 1 - p, B: p, C: p, D: 1 - p}
}

// IsColumnStochastic reports whether both columns sum to 1 within tol and
// all entries are non-negative.
func (f Factor2) IsColumnStochastic(tol float64) bool {
	if f.A < 0 || f.B < 0 || f.C < 0 || f.D < 0 {
		return false
	}
	return math.Abs(f.A+f.C-1) <= tol && math.Abs(f.B+f.D-1) <= tol
}

// Dense returns the factor as a 2×2 dense matrix.
func (f Factor2) Dense() *dense.Matrix {
	return dense.FromRows([][]float64{{f.A, f.B}, {f.C, f.D}})
}

// group describes one independent block of the mutation process: a
// 2^bitsLen × 2^bitsLen column-stochastic matrix acting on the contiguous
// bit range [offset, offset+bitsLen).
type group struct {
	offset  int
	bitsLen int
	// fast path for bitsLen == 1
	f2 Factor2
	// general path for bitsLen > 1 (nil when the fast path applies)
	mat *dense.Matrix
}

// Process is an implicit representation of a mutation matrix Q with
// Kronecker structure (Eq. 7 general case, Eq. 11 grouped case). It
// supports exact Θ(N·log₂N) matrix–vector products without storing Q.
//
// A Process is immutable after construction. Apply and its variants on
// single-bit (uniform and per-site) processes are safe to run concurrently
// on distinct vectors; processes with grouped factors, as well as
// ApplyShiftInvert*, reuse per-Process scratch (hoisted there to keep the
// hot paths allocation-free) and must not be applied concurrently with
// themselves — the same contract as core.Operator.
type Process struct {
	nu      int
	n       int
	uniform bool    // all factors equal UniformFactor(p)
	p       float64 // valid only when uniform
	groups  []group

	// segs is the execution plan of Apply: maximal runs of consecutive
	// single-bit factors fused into blocked butterfly passes, interleaved
	// with grouped factors in Kronecker order.
	segs []segment
	// grpIn/grpOut are the gather/scatter scratch of the grouped-factor
	// path, sized to the largest group (nil without grouped factors).
	grpIn, grpOut []float64
	// siInv is the (Λ−µI)⁻¹ spectrum scratch of ApplyShiftInvert*,
	// refilled per call (uniform only).
	siInv []float64
}

// segment is one step of Apply's execution plan: either a fused run of
// consecutive single-bit butterfly stages (fs != nil, first stage on bit
// off0) or a single grouped factor (grp indexing Process.groups).
type segment struct {
	off0 int
	fs   []Factor2
	grp  int
}

// finalize derives the execution plan and scratch from q.groups; every
// constructor calls it exactly once.
func (q *Process) finalize() {
	maxGroupBits := 0
	for i := 0; i < len(q.groups); {
		g := q.groups[i]
		if g.bitsLen == 1 {
			var fs []Factor2
			for i < len(q.groups) && q.groups[i].bitsLen == 1 {
				fs = append(fs, q.groups[i].f2)
				i++
			}
			q.segs = append(q.segs, segment{off0: g.offset, fs: fs, grp: -1})
			continue
		}
		if g.bitsLen > maxGroupBits {
			maxGroupBits = g.bitsLen
		}
		q.segs = append(q.segs, segment{grp: i})
		i++
	}
	if maxGroupBits > 0 {
		q.grpIn = make([]float64, 1<<uint(maxGroupBits))
		q.grpOut = make([]float64, 1<<uint(maxGroupBits))
	}
	if q.uniform {
		q.siInv = make([]float64, q.nu+1)
	}
}

// NewUniform returns the standard quasispecies mutation process with a
// single error rate p for every position (Eqs. 2 and 7).
func NewUniform(nu int, p float64) (*Process, error) {
	if err := ValidateRate(p); err != nil {
		return nil, err
	}
	if nu < 0 || nu > bits.MaxChainLen {
		return nil, fmt.Errorf("mutation: chain length %d out of range [0,%d]", nu, bits.MaxChainLen)
	}
	gs := make([]group, nu)
	for k := range gs {
		gs[k] = group{offset: k, bitsLen: 1, f2: UniformFactor(p)}
	}
	q := &Process{nu: nu, n: bits.SpaceSize(nu), uniform: true, p: p, groups: gs}
	q.finalize()
	return q, nil
}

// MustUniform is NewUniform that panics on error, for tests and examples
// with constant parameters.
func MustUniform(nu int, p float64) *Process {
	q, err := NewUniform(nu, p)
	if err != nil {
		panic(err)
	}
	return q
}

// NewPerSite returns a mutation process with an independent 2×2
// column-stochastic factor per sequence position (Section 2.2: "there is
// actually no need for the single point mutations to have the same
// properties"). factors[k] acts on position k; ν = len(factors).
func NewPerSite(factors []Factor2) (*Process, error) {
	nu := len(factors)
	if nu > bits.MaxChainLen {
		return nil, fmt.Errorf("mutation: chain length %d out of range", nu)
	}
	const tol = 1e-12
	gs := make([]group, nu)
	uniform := true
	for k, f := range factors {
		if !f.IsColumnStochastic(tol) {
			return nil, fmt.Errorf("mutation: factor %d is not column stochastic: %+v", k, f)
		}
		if f != factors[0] || f.A != f.D || f.B != f.C {
			uniform = false
		}
		gs[k] = group{offset: k, bitsLen: 1, f2: f}
	}
	p := 0.0
	if nu > 0 {
		p = factors[0].B
		if !(p > 0 && p <= 0.5) {
			uniform = false
		}
	}
	q := &Process{nu: nu, n: bits.SpaceSize(nu), uniform: uniform, p: p, groups: gs}
	q.finalize()
	return q, nil
}

// NewGrouped returns a mutation process composed of g independent groups of
// dependent positions (Eq. 11): Q = ⊗ᵢ Q_{Gᵢ} with Q_{Gᵢ} a column-
// stochastic 2^gᵢ × 2^gᵢ matrix. factors[0] acts on the lowest-order bits.
func NewGrouped(factors []*dense.Matrix) (*Process, error) {
	const tol = 1e-10
	gs := make([]group, 0, len(factors))
	offset := 0
	for idx, m := range factors {
		if m.Rows != m.Cols {
			return nil, fmt.Errorf("mutation: group %d is not square (%d×%d)", idx, m.Rows, m.Cols)
		}
		gbits := 0
		for 1<<gbits < m.Rows {
			gbits++
		}
		if 1<<gbits != m.Rows || m.Rows < 2 {
			return nil, fmt.Errorf("mutation: group %d size %d is not a power of two ≥ 2", idx, m.Rows)
		}
		for c, s := range m.ColumnSums() {
			if math.Abs(s-1) > tol {
				return nil, fmt.Errorf("mutation: group %d column %d sums to %g, not 1", idx, c, s)
			}
		}
		for _, v := range m.Data {
			if v < 0 {
				return nil, fmt.Errorf("mutation: group %d has a negative entry", idx)
			}
		}
		if gbits == 1 {
			gs = append(gs, group{offset: offset, bitsLen: 1,
				f2: Factor2{A: m.At(0, 0), B: m.At(0, 1), C: m.At(1, 0), D: m.At(1, 1)}})
		} else {
			gs = append(gs, group{offset: offset, bitsLen: gbits, mat: m.Clone()})
		}
		offset += gbits
	}
	if offset > bits.MaxChainLen {
		return nil, fmt.Errorf("mutation: total chain length %d out of range", offset)
	}
	q := &Process{nu: offset, n: bits.SpaceSize(offset), groups: gs}
	q.finalize()
	return q, nil
}

// ChainLen returns ν, the chain length.
func (q *Process) ChainLen() int { return q.nu }

// Dim returns N = 2^ν, the dimension of the sequence space.
func (q *Process) Dim() int { return q.n }

// Uniform reports whether the process is the standard uniform-rate model,
// and if so returns its error rate.
func (q *Process) Uniform() (p float64, ok bool) { return q.p, q.uniform }

// Symmetric reports whether Q = Qᵀ, which holds exactly when every factor
// is symmetric (B = C for a single-bit factor). Then F^½·Q·F^½ is
// symmetric too, the precondition of the Lanczos-family solvers.
func (q *Process) Symmetric() bool {
	for _, g := range q.groups {
		if g.bitsLen == 1 && g.f2.B != g.f2.C || g.bitsLen > 1 && !g.mat.IsSymmetric(0) {
			return false
		}
	}
	return true
}

// SpectralFloor returns the smallest eigenvalue of the symmetric matrix S
// that Q is diagonally similar to (Q = D·S·D⁻¹ with D diagonal and
// positive), and whether it is known and non-negative. A single-bit factor [[A,B],[C,D]] with B, C > 0 is conjugated by
// diag(1, √(C/B)) into the symmetric [[A,√(BC)],[√(BC),D]], whose
// eigenvalues are 1 and A+D−1 for a column-stochastic factor; S is the
// Kronecker product of those, so its smallest eigenvalue is Π_k(A_k+D_k−1)
// when every A_k+D_k > 1. The uniform process gives (1−2p)^ν, computed as
// that power (0 at p = ½). Grouped factors, and single-bit ones with B or C
// zero or A+D ≤ 1, report false.
func (q *Process) SpectralFloor() (float64, bool) {
	if q.uniform {
		return math.Pow(1-2*q.p, float64(q.nu)), true
	}
	floor := 1.0
	for _, g := range q.groups {
		f := g.f2
		if g.bitsLen != 1 || !(f.B > 0 && f.C > 0 && f.A+f.D > 1) {
			return 0, false
		}
		floor *= f.A + f.D - 1
	}
	return floor, true
}

// GroupSizes returns the gᵢ of the Kronecker structure (all 1 for the
// standard and per-site models).
func (q *Process) GroupSizes() []int {
	out := make([]int, len(q.groups))
	for i, g := range q.groups {
		out[i] = g.bitsLen
	}
	return out
}

// Dense materializes the full Q as a dense matrix via the Kronecker
// product of the factors. Exponential memory — small ν only.
func (q *Process) Dense() *dense.Matrix {
	out := dense.Identity(1)
	// Q = G_{last} ⊗ … ⊗ G_0 with G_0 on the low bits.
	for _, g := range q.groups {
		var f *dense.Matrix
		if g.bitsLen == 1 {
			f = g.f2.Dense()
		} else {
			f = g.mat
		}
		out = f.Kronecker(out)
	}
	return out
}
