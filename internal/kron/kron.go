// Package kron implements the Kronecker-structured solver of Section 5.2:
// when the mutation matrix Q = ⊗ᵢ Q_{Gᵢ} (Eq. 11) and the fitness
// landscape F = ⊗ᵢ F_{Gᵢ} (Eq. 18) share a compatible group structure,
// the mixed product formula (A⊗B)(C⊗D) = AC⊗BD decouples the eigenproblem
// entirely:
//
//	W = Q·F = ⊗ᵢ (Q_{Gᵢ}·F_{Gᵢ}),   λ₀(W) = Πᵢ λ₀(Wᵢ),   x₀(W) = ⊗ᵢ x₀(Wᵢ).
//
// A chain of length ν = Σ gᵢ therefore costs g independent subproblems of
// size 2^gᵢ instead of one problem of size 2^ν — e.g. ν = 100 with four
// 25-bit groups becomes four tractable 2^25 solves (the paper's flagship
// example). Each subproblem is itself a quasispecies problem solved with
// the fast Pi(Fmmp) machinery, so the construction composes recursively.
//
// Beyond the implicit eigenvector ⊗ᵢ xᵢ, the package extracts aggregate
// information without materializing 2^ν values: per-error-class minimum
// and maximum concentrations (the quantity Section 5.2 proposes for
// detecting the error threshold) and even exact cumulative class
// concentrations [Γ_k], both by dynamic programming over the factors.
package kron

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/vec"
)

// Factor is one independent group: a mutation process and a fitness
// landscape over the same gᵢ positions.
type Factor struct {
	Q *mutation.Process
	F landscape.Landscape
}

// System is a quasispecies problem with fully Kronecker-structured W.
type System struct {
	factors []Factor
	nu      int // total chain length Σ gᵢ (may exceed dense range)
}

// NewSystem validates and assembles the factor list. Factors are ordered
// from the lowest bit positions upward, matching the mutation package's
// convention.
func NewSystem(factors []Factor) (*System, error) {
	if len(factors) == 0 {
		return nil, errors.New("kron: system needs at least one factor")
	}
	nu := 0
	for i, f := range factors {
		if f.Q == nil || f.F == nil {
			return nil, fmt.Errorf("kron: factor %d has nil components", i)
		}
		if f.Q.ChainLen() != f.F.ChainLen() {
			return nil, fmt.Errorf("kron: factor %d mixes ν=%d mutation with ν=%d landscape",
				i, f.Q.ChainLen(), f.F.ChainLen())
		}
		if f.Q.ChainLen() == 0 {
			return nil, fmt.Errorf("kron: factor %d is empty", i)
		}
		nu += f.Q.ChainLen()
	}
	return &System{factors: append([]Factor(nil), factors...), nu: nu}, nil
}

// ChainLen returns the total chain length ν = Σ gᵢ.
func (s *System) ChainLen() int { return s.nu }

// SolveOptions configures the per-factor eigensolves.
type SolveOptions struct {
	// Tol is the per-factor residual threshold (default: the
	// floating-point-floor tolerance of each factor).
	Tol float64
	// MaxIter caps each subproblem's power iteration (default 500000).
	MaxIter int
	// UseShift enables the conservative shift on each subproblem.
	UseShift bool
	// Workers solves that many factors concurrently (they are fully
	// independent subproblems); 0 or 1 solves sequentially, < 0 selects
	// GOMAXPROCS. Results are identical at every worker count: each
	// factor's solve is self-contained and results are assembled in
	// factor order, including the λ₀ = Π λᵢ product.
	Workers int
}

// FactorResult is the solved eigenpair of one subproblem.
type FactorResult struct {
	Lambda     float64
	Vector     []float64 // concentration-normalized (Σ = 1)
	Iterations int
}

// Result is the implicit dominant eigenpair of the full system.
type Result struct {
	system  *System
	Factors []FactorResult
	// Lambda is λ₀(W) = Π λ₀(Wᵢ).
	Lambda float64
}

// Solve runs the decoupled per-factor eigensolves. The subproblems are
// independent ("can all be solved independently instead of solving one
// problem of size 2^ν"); Workers > 1 schedules them over the batch
// work-queue, assembling results — including the λ₀ = Π λᵢ product — in
// factor order so the outcome matches the sequential solve exactly.
func (s *System) Solve(opts SolveOptions) (*Result, error) {
	workers := opts.Workers
	if workers == 0 {
		workers = 1
	}
	res := &Result{system: s, Lambda: 1, Factors: make([]FactorResult, len(s.factors))}
	err := batch.Run(len(s.factors), workers, func(i, _ int) error {
		f := s.factors[i]
		op, err := core.NewFmmpOperator(f.Q, f.F, core.Right, nil)
		if err != nil {
			return fmt.Errorf("kron: factor %d: %w", i, err)
		}
		tol := opts.Tol
		if tol <= 0 {
			tol = core.DefaultTolerance(f.F)
		}
		po := core.PowerOptions{Tol: tol, MaxIter: opts.MaxIter, Start: op.FitnessStart()}
		if opts.UseShift {
			po.Shift = core.ConservativeShift(f.Q, f.F)
		}
		pr, err := core.PowerIteration(op, po)
		if err != nil {
			return fmt.Errorf("kron: factor %d did not converge: %w", i, err)
		}
		x := pr.Vector
		if err := core.Concentrations(x); err != nil {
			return fmt.Errorf("kron: factor %d: %w", i, err)
		}
		res.Factors[i] = FactorResult{Lambda: pr.Lambda, Vector: x, Iterations: pr.Iterations}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range res.Factors {
		res.Lambda *= f.Lambda
	}
	return res, nil
}

// At returns the concentration of sequence i of the full problem,
// xᵢ = Π_g x_g[bits of i in group g]. Because each factor is normalized to
// Σ = 1, the product vector is automatically the full concentration
// distribution (Σ over 2^ν sequences = Π Σ_g = 1). Only valid when the
// total ν permits 64-bit indexing.
func (r *Result) At(i uint64) (float64, error) {
	if r.system.nu > bits.MaxChainLen {
		return 0, fmt.Errorf("kron: ν = %d exceeds 64-bit indexing; use class aggregates", r.system.nu)
	}
	x := 1.0
	off := 0
	for g, f := range r.system.factors {
		gb := f.Q.ChainLen()
		sub := (i >> uint(off)) & ((1 << uint(gb)) - 1)
		x *= r.Factors[g].Vector[sub]
		off += gb
	}
	return x, nil
}

// Materialize expands the full eigenvector (Θ(2^ν) memory; small ν only).
func (r *Result) Materialize() ([]float64, error) {
	if r.system.nu > 30 {
		return nil, fmt.Errorf("kron: refusing to materialize 2^%d entries", r.system.nu)
	}
	n := bits.SpaceSize(r.system.nu)
	x := make([]float64, n)
	for i := range x {
		v, err := r.At(uint64(i))
		if err != nil {
			return nil, err
		}
		x[i] = v
	}
	return x, nil
}

// factorClassAggregates returns, for factor g, per-weight (sum, min, max)
// of its concentration vector.
func (r *Result) factorClassAggregates(g int) (sum, mn, mx []float64) {
	f := r.system.factors[g]
	gb := f.Q.ChainLen()
	v := r.Factors[g].Vector
	sum = make([]float64, gb+1)
	mn = make([]float64, gb+1)
	mx = make([]float64, gb+1)
	for w := range mn {
		mn[w] = math.Inf(1)
	}
	for i, x := range v {
		w := bits.Weight(uint64(i))
		sum[w] += x
		mn[w] = math.Min(mn[w], x)
		mx[w] = math.Max(mx[w], x)
	}
	return sum, mn, mx
}

// ClassConcentrations returns the exact cumulative class concentrations
// [Γ_k] of the full 2^ν problem by convolving the per-factor class sums —
// Θ(ν²) work regardless of 2^ν. This extends Section 5.2's proposal of
// extracting eigenvector information from the implicit description.
func (r *Result) ClassConcentrations() []float64 {
	acc := []float64{1}
	for g := range r.system.factors {
		sum, _, _ := r.factorClassAggregates(g)
		acc = convolve(acc, sum)
	}
	return acc
}

// ClassMinMax returns, for every error class Γ_k of the full problem, the
// minimum and maximum single-sequence concentration — the per-class
// envelope Section 5.2 suggests "should provide sufficient information for
// investigating … whether the error threshold phenomenon occurs".
// Positivity of concentrations makes min/max factor across the ⊗ product,
// so a min-plus/max-plus convolution over factors is exact.
func (r *Result) ClassMinMax() (mn, mx []float64) {
	mnAcc, mxAcc := []float64{1}, []float64{1}
	for g := range r.system.factors {
		_, fmn, fmx := r.factorClassAggregates(g)
		mnAcc = convolveExtreme(mnAcc, fmn, math.Min)
		mxAcc = convolveExtreme(mxAcc, fmx, math.Max)
	}
	return mnAcc, mxAcc
}

// convolve returns the additive convolution c[k] = Σ_j a[j]·b[k−j].
func convolve(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// convolveExtreme returns c[k] = extreme_j (a[j]·b[k−j]) for positive a, b.
func convolveExtreme(a, b []float64, extreme func(x, y float64) float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	init := make([]bool, len(out))
	for i, av := range a {
		for j, bv := range b {
			v := av * bv
			if !init[i+j] {
				out[i+j], init[i+j] = v, true
			} else {
				out[i+j] = extreme(out[i+j], v)
			}
		}
	}
	return out
}

// MasterConcentration returns x₀ = Π_g x_g[0], the concentration of the
// master sequence, available at any chain length.
func (r *Result) MasterConcentration() float64 {
	x := 1.0
	for _, f := range r.Factors {
		x *= f.Vector[0]
	}
	return x
}

// DenseW materializes the full W = ⊗(QᵢFᵢ) for verification at small ν.
func (s *System) DenseW() (*core.DenseOperator, error) {
	if s.nu > 14 {
		return nil, fmt.Errorf("kron: refusing to materialize a 2^%d dense matrix", s.nu)
	}
	var acc *core.DenseOperator
	for i, f := range s.factors {
		w, err := core.NewDenseW(f.Q, f.F, core.Right)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = w
			continue
		}
		// Higher factors occupy higher bits: W = W_g ⊗ … ⊗ W_0.
		m := w.M.Kronecker(acc.M)
		acc, err = core.NewDenseOperator(m)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// VerifyMaterialized checks Σx = 1 and consistency between the implicit
// class aggregates and a materialized eigenvector (test support; small ν).
func (r *Result) VerifyMaterialized() error {
	x, err := r.Materialize()
	if err != nil {
		return err
	}
	if s := vec.SumKahan(x); math.Abs(s-1) > 1e-10 {
		return fmt.Errorf("kron: materialized eigenvector sums to %g", s)
	}
	gamma := r.ClassConcentrations()
	direct, err := core.ClassConcentrations(r.system.nu, x)
	if err != nil {
		return err
	}
	for k := range gamma {
		if math.Abs(gamma[k]-direct[k]) > 1e-10 {
			return fmt.Errorf("kron: [Γ%d] convolved %g vs direct %g", k, gamma[k], direct[k])
		}
	}
	return nil
}
