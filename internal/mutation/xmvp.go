package mutation

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/device"
)

// Xmvp is the XOR-based implicit (and optionally sparsified) matrix–vector
// product of the authors' earlier work [10], which the paper uses as its
// baseline. For a maximum Hamming distance dmax it computes
//
//	(Q·v)[i] ≈ Σ_{dH(i,j) ≤ dmax} QΓ_{dH(i,j)} · v[j]
//	         = Σ_{weight(m) ≤ dmax} QΓ_{weight(m)} · v[i ⊕ m],
//
// enumerating neighbours via XOR masks so Q is never stored. With
// dmax = ν it is exact and "basically identical to Smvp up to some small
// constant factor" (the paper's Θ(N²) reference); with dmax < ν it is the
// approximation whose accuracy/speed trade-off Figures 2–4 chart.
// Time is Θ(N·Σ_{k≤dmax} C(ν,k)); extra space is Θ(#masks).
type Xmvp struct {
	nu   int
	n    int
	p    float64
	dmax int
	// masks of weight ≤ dmax paired with the class value of their weight.
	masks  []uint64
	values []float64
}

// NewXmvp builds the mask table for chain length nu, error rate p and
// sparsification radius dmax (clamped to nu; dmax = nu is exact).
func NewXmvp(nu int, p float64, dmax int) (*Xmvp, error) {
	if err := ValidateRate(p); err != nil {
		return nil, err
	}
	if nu < 0 || nu > bits.MaxChainLen {
		return nil, fmt.Errorf("mutation: chain length %d out of range", nu)
	}
	if dmax < 0 {
		return nil, fmt.Errorf("mutation: dmax %d must be non-negative", dmax)
	}
	if dmax > nu {
		dmax = nu
	}
	size := bits.NeighborhoodSize(nu, dmax)
	const maxMasks = 1 << 28
	if size > maxMasks {
		return nil, fmt.Errorf("mutation: Xmvp mask table with %d entries exceeds the %d cap", size, maxMasks)
	}
	qv := ClassValues(nu, p)
	x := &Xmvp{nu: nu, n: bits.SpaceSize(nu), p: p, dmax: dmax,
		masks: make([]uint64, 0, size), values: make([]float64, 0, size)}
	bits.EnumerateUpToWeight(nu, dmax, func(m uint64, w int) {
		x.masks = append(x.masks, m)
		x.values = append(x.values, qv[w])
	})
	return x, nil
}

// ChainLen returns ν.
func (x *Xmvp) ChainLen() int { return x.nu }

// Dim returns N = 2^ν.
func (x *Xmvp) Dim() int { return x.n }

// DMax returns the sparsification radius.
func (x *Xmvp) DMax() int { return x.dmax }

// MaskCount returns the number of XOR masks, Σ_{k≤dmax} C(ν,k).
func (x *Xmvp) MaskCount() int { return len(x.masks) }

// Apply computes dst ← Q·v (restricted to the dmax-neighbourhood).
// dst must not alias v.
func (x *Xmvp) Apply(dst, v []float64) {
	x.checkDims(dst, v)
	x.applyRows(dst, v, 0, x.n)
}

// ApplyDevice is Apply with the row loop distributed over device workers;
// rows are independent, so this mirrors the paper's GPU port of Xmvp.
func (x *Xmvp) ApplyDevice(d *device.Device, dst, v []float64) {
	x.checkDims(dst, v)
	d.LaunchRange(x.n, func(lo, hi int) {
		x.applyRows(dst, v, lo, hi)
	})
}

// applyRows computes rows [lo, hi) of dst ← Q·v. The value table is
// re-sliced to the mask table's length so the paired loads run without
// bounds checks, and the mask loop is unrolled 4-wide WITHOUT changing the
// accumulation order (s gathers the products strictly left to right, as in
// the scalar loop), so sparsification-accuracy results are unchanged. Only
// the gather v[ui^m] keeps its check — its index is data-dependent.
func (x *Xmvp) applyRows(dst, v []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		ui := uint64(i)
		ms, vals := x.masks, x.values[:len(x.masks)]
		for len(ms) >= 4 && len(vals) >= 4 {
			p0 := vals[0] * v[ui^ms[0]]
			p1 := vals[1] * v[ui^ms[1]]
			p2 := vals[2] * v[ui^ms[2]]
			p3 := vals[3] * v[ui^ms[3]]
			s = ((s + p0 + p1) + p2) + p3
			ms, vals = ms[4:], vals[4:]
		}
		for len(ms) > 0 && len(vals) > 0 {
			s += vals[0] * v[ui^ms[0]]
			ms, vals = ms[1:], vals[1:]
		}
		dst[i] = s
	}
}

func (x *Xmvp) checkDims(dst, v []float64) {
	if len(dst) != x.n || len(v) != x.n {
		panic(fmt.Sprintf("mutation: Xmvp dimension mismatch: dst %d, v %d, N %d", len(dst), len(v), x.n))
	}
	if &dst[0] == &v[0] {
		panic("mutation: Xmvp.Apply dst must not alias v")
	}
}
