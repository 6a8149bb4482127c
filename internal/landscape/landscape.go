// Package landscape implements the fitness landscapes F = diag(f₀ … f_{N−1})
// of the quasispecies model, covering every family used in the paper with
// three types:
//
//   - ErrorClass, the Hamming-distance-based landscapes fᵢ = ϕ(dH(i,0))
//     of Section 5.1, held as their ϕ table. The single-peak landscape
//     ϕ = [a, b, …, b] (Figure 1 left), the linear landscape
//     ϕ(k) = f₀ − (f₀−f_ν)·k/ν (Figure 1 right) and the flat landscape
//     ϕ ≡ c are particular tables, built by NewSinglePeak, NewLinear and
//     NewUniform;
//   - Random, the landscape f₀ = c, fᵢ = σ·(η_rnd(i)+0.5) of Eq. 13
//     (Section 4's experiments), realized with a counter-based hash so any
//     fᵢ is random-accessible without storing N values;
//   - Vector, explicit vector landscapes (the fully general diagonal F).
//
// Kronecker landscapes F = ⊗ᵢ F_{Gᵢ} (Eq. 18, Section 5.2) stay factored
// in internal/kron, which solves them one factor at a time.
//
// All fitness values must be positive and finite, as required for the
// Perron–Frobenius argument that makes the dominant eigenvector unique and
// non-negative.
package landscape

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bits"
)

// Landscape is a diagonal fitness matrix F accessed by sequence index.
//
// Bounds returns (lo, hi) with lo ≤ min fᵢ and max fᵢ ≤ hi; lo must be
// strictly positive. Solvers use lo for the convergence shift
// µ = (1−2p)^ν·f_min, for which any positive lower bound is valid (a
// smaller-than-necessary shift is conservative, never incorrect).
type Landscape interface {
	// ChainLen returns ν.
	ChainLen() int
	// Dim returns N = 2^ν.
	Dim() int
	// At returns fᵢ for sequence i ∈ [0, Dim).
	At(i uint64) float64
	// Bounds returns positive lower/upper bounds on the fitness values.
	Bounds() (lo, hi float64)
}

// ErrNonPositive is returned by constructors for fitness values that are
// not positive and finite: ≤ 0, NaN or +Inf.
var ErrNonPositive = errors.New("landscape: fitness values must be positive and finite")

// checkChainLen rejects a chain length ν outside [0, bits.MaxChainLen],
// whose 2^ν sequences an index cannot address.
func checkChainLen(nu int) error {
	if nu < 0 || nu > bits.MaxChainLen {
		return fmt.Errorf("landscape: chain length %d out of range [0,%d]", nu, bits.MaxChainLen)
	}
	return nil
}

// positive reports whether v is a valid fitness value: v > 0 and finite.
// NaN fails the comparison.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Materialize returns the explicit vector diag(F). Θ(N) memory.
func Materialize(l Landscape) []float64 {
	n := l.Dim()
	f := make([]float64, n)
	for i := range f {
		f[i] = l.At(uint64(i))
	}
	return f
}

// ---------------------------------------------------------------------------
// Error-class landscapes

// ErrorClass is the Hamming-distance-based landscape fᵢ = ϕ(dH(i,0))
// given by a table ϕ(0..ν) — the family for which Section 5.1 reduces the
// N×N problem exactly to (ν+1)×(ν+1). The single-peak, linear and flat
// landscapes are particular tables (NewSinglePeak, NewLinear, NewUniform).
type ErrorClass struct {
	nu  int
	phi []float64
	lo  float64
	hi  float64
}

// NewErrorClass constructs the landscape from the ν+1 class fitness values.
func NewErrorClass(phi []float64) (*ErrorClass, error) {
	if len(phi) == 0 {
		return nil, errors.New("landscape: empty ϕ table")
	}
	if err := checkChainLen(len(phi) - 1); err != nil {
		return nil, err
	}
	return fromTable(append([]float64(nil), phi...))
}

// NewSinglePeak constructs the classic landscape with a fitter master
// sequence: ϕ(0) = peak, ϕ(k) = base for k ≥ 1. Figure 1 (left) uses
// peak 2, base 1.
func NewSinglePeak(nu int, peak, base float64) (*ErrorClass, error) {
	if !positive(peak) || !positive(base) {
		return nil, fmt.Errorf("%w: peak %g, base %g", ErrNonPositive, peak, base)
	}
	if err := checkChainLen(nu); err != nil {
		return nil, err
	}
	phi := make([]float64, nu+1)
	for k := range phi {
		phi[k] = base
	}
	phi[0] = peak
	return fromTable(phi)
}

// NewLinear constructs the landscape of Figure 1 (right), whose fitness
// decays linearly with distance from the master sequence:
// ϕ(k) = f0 − (f0−fnu)·k/ν.
func NewLinear(nu int, f0, fnu float64) (*ErrorClass, error) {
	if !positive(f0) || !positive(fnu) {
		return nil, fmt.Errorf("%w: f0 %g, fν %g", ErrNonPositive, f0, fnu)
	}
	if nu < 1 {
		return nil, fmt.Errorf("landscape: linear landscape needs ν ≥ 1, got %d", nu)
	}
	if err := checkChainLen(nu); err != nil {
		return nil, err
	}
	phi := make([]float64, nu+1)
	for k := range phi {
		phi[k] = f0 - (f0-fnu)*float64(k)/float64(nu)
	}
	return fromTable(phi)
}

// NewUniform constructs the flat landscape ϕ ≡ value. With equal fitness
// W is a positive multiple of the bistochastic Q, whose Perron vector is
// the uniform distribution (Section 1.1).
func NewUniform(nu int, value float64) (*ErrorClass, error) {
	if !positive(value) {
		return nil, fmt.Errorf("%w: %g", ErrNonPositive, value)
	}
	if err := checkChainLen(nu); err != nil {
		return nil, err
	}
	phi := make([]float64, nu+1)
	for k := range phi {
		phi[k] = value
	}
	return fromTable(phi)
}

// fromTable returns the landscape that owns phi (1 ≤ len(phi) ≤
// bits.MaxChainLen+1), with Bounds the table's exact minimum and maximum.
func fromTable(phi []float64) (*ErrorClass, error) {
	lo, hi := phi[0], phi[0]
	for k, v := range phi {
		if !positive(v) {
			return nil, fmt.Errorf("%w: ϕ(%d) = %g", ErrNonPositive, k, v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return &ErrorClass{nu: len(phi) - 1, phi: phi, lo: lo, hi: hi}, nil
}

func (e *ErrorClass) ChainLen() int            { return e.nu }
func (e *ErrorClass) Dim() int                 { return bits.SpaceSize(e.nu) }
func (e *ErrorClass) At(i uint64) float64      { return e.phi[bits.Weight(i)] }
func (e *ErrorClass) Bounds() (lo, hi float64) { return e.lo, e.hi }

// Phi returns ϕ(k).
func (e *ErrorClass) Phi(k int) float64 { return e.phi[k] }

// PhiTable returns a copy of the full ϕ table.
func (e *ErrorClass) PhiTable() []float64 {
	cp := make([]float64, len(e.phi))
	copy(cp, e.phi)
	return cp
}

// ClassBased reports whether l is an error-class landscape, returning its
// ϕ table when it is. ErrorClass qualifies; explicit vectors are scanned
// and qualify when their values depend only on the Hamming weight.
func ClassBased(l Landscape) ([]float64, bool) {
	switch t := l.(type) {
	case *ErrorClass:
		return t.PhiTable(), true
	case *Vector:
		return t.classTable()
	default:
		return nil, false
	}
}

// ---------------------------------------------------------------------------
// Random landscape (Eq. 13)

// Random is the random landscape of Eq. 13: f₀ = C and
// fᵢ = Sigma·(η_rnd(i) + 0.5) with η_rnd uniform on [0,1). Values are
// produced by a counter-based hash of (Seed, i), so the landscape is
// deterministic, random-accessible and needs no Θ(N) storage.
type Random struct {
	nu    int
	C     float64
	Sigma float64
	Seed  uint64
}

// NewRandom constructs the Eq. 13 landscape. The paper requires c > 0 and
// σ ∈ (0, c/2), which guarantees f₀ = c is the unique fittest sequence.
func NewRandom(nu int, c, sigma float64, seed uint64) (*Random, error) {
	if !positive(c) {
		return nil, fmt.Errorf("%w: c = %g", ErrNonPositive, c)
	}
	if !(sigma > 0 && sigma < c/2) {
		return nil, fmt.Errorf("landscape: σ = %g outside (0, c/2) = (0, %g)", sigma, c/2)
	}
	if err := checkChainLen(nu); err != nil {
		return nil, err
	}
	return &Random{nu: nu, C: c, Sigma: sigma, Seed: seed}, nil
}

func (r *Random) ChainLen() int { return r.nu }
func (r *Random) Dim() int      { return bits.SpaceSize(r.nu) }

func (r *Random) At(i uint64) float64 {
	if i == 0 {
		return r.C
	}
	return r.Sigma * (hash01(r.Seed, i) + 0.5)
}

func (r *Random) Bounds() (lo, hi float64) {
	// fᵢ ∈ [σ/2, 3σ/2) for i > 0 and f₀ = c > 3σ/2·(2/3)… use the loose
	// but always-valid envelope.
	return math.Min(r.C, r.Sigma/2), math.Max(r.C, 1.5*r.Sigma)
}

// hash01 maps (seed, i) to a uniform float64 in [0, 1) with a splitmix64
// finalizer — η_rnd(i) of Eq. 13.
func hash01(seed, i uint64) float64 {
	z := seed ^ (i * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// ---------------------------------------------------------------------------
// Explicit vector landscape

// Vector is the fully general diagonal landscape holding all N fitness
// values explicitly — "an unstructured landscape F … all its N values have
// to be stored" (Section 3).
type Vector struct {
	nu int
	f  []float64
	lo float64
	hi float64
}

// NewVector constructs a landscape from an explicit fitness vector of
// length 2^ν.
func NewVector(f []float64) (*Vector, error) {
	n := len(f)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("landscape: vector length %d is not a power of two", n)
	}
	nu := 0
	for 1<<nu < n {
		nu++
	}
	lo, hi := f[0], f[0]
	for i, v := range f {
		if !positive(v) {
			return nil, fmt.Errorf("%w: f[%d] = %g", ErrNonPositive, i, v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	cp := make([]float64, n)
	copy(cp, f)
	return &Vector{nu: nu, f: cp, lo: lo, hi: hi}, nil
}

func (v *Vector) ChainLen() int            { return v.nu }
func (v *Vector) Dim() int                 { return len(v.f) }
func (v *Vector) At(i uint64) float64      { return v.f[i] }
func (v *Vector) Bounds() (lo, hi float64) { return v.lo, v.hi }

// classTable returns (ϕ, true) when the vector depends only on Hamming
// weight.
func (v *Vector) classTable() ([]float64, bool) {
	phi := make([]float64, v.nu+1)
	seen := make([]bool, v.nu+1)
	for i, val := range v.f {
		k := bits.Weight(uint64(i))
		if !seen[k] {
			phi[k], seen[k] = val, true
		} else if phi[k] != val {
			return nil, false
		}
	}
	return phi, true
}
