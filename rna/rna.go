// Package rna extends the quasispecies solver from the paper's binary
// alphabet to the full four-letter RNA alphabet {A, C, G, U} — the
// extension Section 5.2 describes as "relatively easy" once mutation is
// expressed through Kronecker products: a sequence of L nucleotides is a
// group structure of L independent 4×4 column-stochastic factors (Eq. 11
// with gᵢ = 2), so the entire Fmmp machinery applies unchanged with
// N = 4^L states.
//
// Nucleotides are encoded in two bits each (A=0, C=1, G=2, U=3,
// nucleotide k in bits [2k, 2k+1]); distance is the nucleotide Hamming
// distance (number of differing positions), under which error class Γ_k
// has C(L,k)·3^k members.
//
// Substitution models provided: Jukes–Cantor (uniform), Kimura
// two-parameter (transitions A↔G, C↔U vs. transversions) and arbitrary
// column-stochastic matrices. For Jukes–Cantor with a nucleotide-class
// landscape the package also solves the four-letter analogue of the
// paper's Section 5.1 reduction, an exact (L+1)×(L+1) eigenproblem, through
// the class reduction of internal/errorclass.
package rna

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/errorclass"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// Nucleotide codes.
const (
	A = 0
	C = 1
	G = 2
	U = 3
)

// MaxLen is the largest nucleotide chain length for explicit state
// enumeration (2L bits must fit the index range).
const MaxLen = 31

// Letters renders a packed sequence as a string of nucleotide letters,
// position 0 first.
func Letters(seq uint64, l int) string {
	const alphabet = "ACGU"
	out := make([]byte, l)
	for k := 0; k < l; k++ {
		out[k] = alphabet[(seq>>(2*uint(k)))&3]
	}
	return string(out)
}

// Encode packs a nucleotide string (letters ACGU, case-sensitive) into an
// index.
func Encode(s string) (uint64, error) {
	if len(s) > MaxLen {
		return 0, fmt.Errorf("rna: sequence length %d exceeds %d", len(s), MaxLen)
	}
	var seq uint64
	for k := 0; k < len(s); k++ {
		var code uint64
		switch s[k] {
		case 'A':
			code = A
		case 'C':
			code = C
		case 'G':
			code = G
		case 'U':
			code = U
		default:
			return 0, fmt.Errorf("rna: invalid nucleotide %q at position %d", s[k], k)
		}
		seq |= code << (2 * uint(k))
	}
	return seq, nil
}

// Hamming returns the nucleotide Hamming distance between two packed
// sequences of length l: the number of positions whose 2-bit codes differ.
func Hamming(x, y uint64, l int) int {
	d := 0
	diff := x ^ y
	for k := 0; k < l; k++ {
		if diff&(3<<(2*uint(k))) != 0 {
			d++
		}
	}
	return d
}

// ClassSize returns |Γ_k| = C(L,k)·3^k, the number of sequences at
// nucleotide distance k from a fixed sequence.
func ClassSize(l, k int) float64 {
	return bits.BinomialFloat(l, k) * math.Pow(3, float64(k))
}

// ---------------------------------------------------------------------------
// Substitution models

// JukesCantor returns the 4×4 single-nucleotide substitution matrix with
// total error rate p: each of the three wrong letters is reached with
// probability p/3. Requires 0 < p ≤ 3/4 (p = 3/4 is the uniform limit).
func JukesCantor(p float64) (*dense.Matrix, error) {
	if !(p > 0 && p <= 0.75) {
		return nil, fmt.Errorf("rna: Jukes–Cantor rate p = %g outside (0, 3/4]", p)
	}
	m := dense.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				m.Set(i, j, 1-p)
			} else {
				m.Set(i, j, p/3)
			}
		}
	}
	return m, nil
}

// Kimura returns the Kimura two-parameter substitution matrix:
// transitions (A↔G and C↔U, i.e. within purines / within pyrimidines)
// occur with probability alpha, each of the two transversions with
// probability beta. Requires alpha, beta > 0 and alpha + 2·beta < 1.
func Kimura(alpha, beta float64) (*dense.Matrix, error) {
	if !(alpha > 0 && beta > 0 && alpha+2*beta < 1) {
		return nil, fmt.Errorf("rna: Kimura parameters α = %g, β = %g invalid", alpha, beta)
	}
	transition := map[[2]int]bool{{A, G}: true, {G, A}: true, {C, U}: true, {U, C}: true}
	m := dense.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			switch {
			case i == j:
				m.Set(i, j, 1-alpha-2*beta)
			case transition[[2]int{i, j}]:
				m.Set(i, j, alpha)
			default:
				m.Set(i, j, beta)
			}
		}
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// The RNA quasispecies model

// Model is a four-letter quasispecies problem: L nucleotides, a
// substitution matrix per position and a fitness landscape over the 4^L
// sequences.
type Model struct {
	l       int
	process *mutation.Process
	land    landscape.Landscape
	// jcRate is > 0 when every position uses the same Jukes–Cantor
	// matrix, enabling the exact class reduction.
	jcRate float64
}

// New builds a model with the same substitution matrix at every position.
func New(l int, substitution *dense.Matrix, land landscape.Landscape) (*Model, error) {
	if l < 1 || l > MaxLen {
		return nil, fmt.Errorf("rna: chain length %d outside [1, %d]", l, MaxLen)
	}
	if land.ChainLen() != 2*l {
		return nil, fmt.Errorf("rna: landscape covers 2^%d states, want 4^%d = 2^%d",
			land.ChainLen(), l, 2*l)
	}
	factors := make([]*dense.Matrix, l)
	for k := range factors {
		factors[k] = substitution
	}
	proc, err := mutation.NewGrouped(factors)
	if err != nil {
		return nil, err
	}
	m := &Model{l: l, process: proc, land: land}
	m.jcRate = jcRateOf(substitution)
	return m, nil
}

// NewPerPosition builds a model with an individual substitution matrix per
// nucleotide position.
func NewPerPosition(substitutions []*dense.Matrix, land landscape.Landscape) (*Model, error) {
	l := len(substitutions)
	if l < 1 || l > MaxLen {
		return nil, fmt.Errorf("rna: chain length %d outside [1, %d]", l, MaxLen)
	}
	if land.ChainLen() != 2*l {
		return nil, fmt.Errorf("rna: landscape covers 2^%d states, want 4^%d", land.ChainLen(), l)
	}
	for i, s := range substitutions {
		if s.Rows != 4 || s.Cols != 4 {
			return nil, fmt.Errorf("rna: substitution %d is %d×%d, want 4×4", i, s.Rows, s.Cols)
		}
	}
	proc, err := mutation.NewGrouped(substitutions)
	if err != nil {
		return nil, err
	}
	return &Model{l: l, process: proc, land: land}, nil
}

// jcRateOf returns p if m is a Jukes–Cantor matrix (within 1e-12), else 0.
func jcRateOf(m *dense.Matrix) float64 {
	if m.Rows != 4 || m.Cols != 4 {
		return 0
	}
	off := m.At(0, 1)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := off
			if i == j {
				want = 1 - 3*off
			}
			if math.Abs(m.At(i, j)-want) > 1e-12 {
				return 0
			}
		}
	}
	return 3 * off
}

// Len returns L, the nucleotide chain length.
func (m *Model) Len() int { return m.l }

// Dim returns 4^L.
func (m *Model) Dim() int { return m.process.Dim() }

// Solution is a solved RNA quasispecies.
type Solution struct {
	Lambda         float64
	Concentrations []float64 // Σ = 1; nil for reduced solves of long chains
	Gamma          []float64 // [Γ_0] … [Γ_L] by nucleotide distance
	Iterations     int
	Residual       float64
	Reduced        bool // solved via the (L+1)×(L+1) reduction
}

// SolveOptions configures Solve.
type SolveOptions struct {
	Tol     float64 // default: the problem's floating-point-floor tolerance
	MaxIter int     // default 500000
}

// Solve computes the quasispecies with power iteration on the grouped
// Fmmp operator (Θ(N·log₂N·…) with the 4×4 group factor).
func (m *Model) Solve(opts SolveOptions) (*Solution, error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = core.DefaultTolerance(m.land)
	}
	op, err := core.NewFmmpOperator(m.process, m.land, core.Right, nil)
	if err != nil {
		return nil, err
	}
	res, err := core.PowerIteration(op, core.PowerOptions{
		Tol: tol, MaxIter: opts.MaxIter, Start: op.FitnessStart(),
	})
	if err != nil {
		return nil, err
	}
	x := res.Vector
	if err := core.Concentrations(x); err != nil {
		return nil, err
	}
	gamma, err := m.ClassConcentrations(x)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Lambda: res.Lambda, Concentrations: x, Gamma: gamma,
		Iterations: res.Iterations, Residual: res.Residual,
	}, nil
}

// ClassConcentrations accumulates a concentration vector into the L+1
// nucleotide-distance error classes around the master sequence.
func (m *Model) ClassConcentrations(x []float64) ([]float64, error) {
	if len(x) != m.Dim() {
		return nil, fmt.Errorf("rna: vector length %d, want %d", len(x), m.Dim())
	}
	gamma := make([]float64, m.l+1)
	for i, v := range x {
		gamma[Hamming(uint64(i), 0, m.l)] += v
	}
	return gamma, nil
}

// ---------------------------------------------------------------------------
// Exact class reduction for Jukes–Cantor models (four-letter Section 5.1)

// SolveReduced solves a Jukes–Cantor model with a nucleotide-class
// landscape ϕ(0..L) through the exact (L+1)×(L+1) reduction of Section
// 5.1, the four-letter case of errorclass.NewAlphabet. The solve runs in
// class-total coordinates, so the returned Gamma is well-scaled at any
// chain length.
func SolveReduced(l int, p float64, phi []float64) (*Solution, error) {
	if len(phi) != l+1 {
		return nil, fmt.Errorf("rna: ϕ table has %d entries, want %d", len(phi), l+1)
	}
	red, err := errorclass.NewAlphabet(4, phi, p)
	if err != nil {
		return nil, err
	}
	res, err := red.Solve()
	if err != nil {
		return nil, err
	}
	return &Solution{Lambda: res.Lambda, Gamma: res.Gamma, Iterations: res.Iterations, Reduced: true}, nil
}

// CanReduce reports whether the model qualifies for SolveReduced (uniform
// Jukes–Cantor process and nucleotide-class landscape) and returns its
// parameters when it does.
func (m *Model) CanReduce() (p float64, phi []float64, ok bool) {
	if m.jcRate == 0 {
		return 0, nil, false
	}
	phi = make([]float64, m.l+1)
	seen := make([]bool, m.l+1)
	for i := 0; i < m.Dim(); i++ {
		k := Hamming(uint64(i), 0, m.l)
		f := m.land.At(uint64(i))
		if !seen[k] {
			phi[k], seen[k] = f, true
		} else if phi[k] != f {
			return 0, nil, false
		}
	}
	return m.jcRate, phi, true
}

// ErrNotReducible is returned by Model.SolveAuto when no reduction exists
// and the full space is too large.
var ErrNotReducible = errors.New("rna: model not reducible and too large for a full solve")
