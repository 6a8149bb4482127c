package mutation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/dense"
	"repro/internal/rng"
	"repro/internal/vec"
)

func hadamardDense(nu int) *dense.Matrix {
	h := dense.FromRows([][]float64{{1}})
	h2 := dense.FromRows([][]float64{{1, 1}, {1, -1}})
	for i := 0; i < nu; i++ {
		h = h2.Kronecker(h)
	}
	return h
}

func TestFWHTMatchesDenseHadamard(t *testing.T) {
	r := rng.New(1)
	for _, nu := range []int{0, 1, 2, 5, 9} {
		n := 1 << nu
		h := hadamardDense(nu)
		v := randVector(r, n)
		want := make([]float64, n)
		h.MatVec(want, v)
		got := vec.Clone(v)
		FWHT(got)
		if vec.DistInf(got, want) > 1e-10 {
			t.Errorf("ν=%d: FWHT deviates from dense H by %g", nu, vec.DistInf(got, want))
		}
	}
}

func TestFWHTInvolution(t *testing.T) {
	// H·H = N·I, so FWHT twice recovers N·v; V = H/√N is involutory.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := int(r.Uint64n(12))
		n := 1 << nu
		v := randVector(r, n)
		w := vec.Clone(v)
		FWHT(w)
		FWHT(w)
		vec.Scale(w, 1/float64(n))
		return vec.DistInf(w, v) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFWHTPanicsOnNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FWHT(len %d) must panic", n)
				}
			}()
			FWHT(make([]float64, n))
		}()
	}
}

func TestEigendecompositionReconstructsQ(t *testing.T) {
	// Q·v == V·Λ·V·v with V applied via FWHT and Λ from the closed form.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(10))
		p := 0.001 + 0.497*r.Float64()
		q := MustUniform(nu, p)
		v := randVector(r, q.Dim())

		want := vec.Clone(v)
		q.Apply(want)

		got := vec.Clone(v)
		FWHT(got)
		scale := 1 / float64(q.Dim())
		for i := range got {
			got[i] *= math.Pow(1-2*p, float64(bits.Weight(uint64(i)))) * scale
		}
		FWHT(got)
		return vec.DistInf(got, want) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEigenvalueMultiplicities(t *testing.T) {
	// Eigenvalue (1−2p)^k has multiplicity C(ν,k): the closed form of
	// Section 2 checked against the dense symmetric eigensolver.
	const nu = 7
	const p = 0.02
	vals, _, err := dense.JacobiEigen(Dense(nu, p), 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]uint64{}
	for _, l := range vals {
		k := -1
		for j := 0; j <= nu; j++ {
			if math.Abs(l-math.Pow(1-2*p, float64(j))) <= 1e-12 {
				k = j
			}
		}
		if k < 0 {
			t.Fatalf("eigenvalue %.15g is no power of 1−2p", l)
		}
		counts[k]++
	}
	for k := 0; k <= nu; k++ {
		if counts[k] != bits.Binomial(nu, k) {
			t.Errorf("multiplicity of (1−2p)^%d = %d, want %d", k, counts[k], bits.Binomial(nu, k))
		}
	}
}

func TestQPositiveDefiniteForSmallP(t *testing.T) {
	// All eigenvalues (1−2p)^k > 0 for p < ½ — Section 2's positive
	// definiteness claim, checked through the dense symmetric eigensolver.
	q := Dense(6, 0.05)
	vals, _, err := dense.JacobiEigen(q, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range vals {
		if l <= 0 {
			t.Fatalf("eigenvalue %g is not positive", l)
		}
	}
}

func TestShiftInvertRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(9))
		p := 0.001 + 0.45*r.Float64()
		q := MustUniform(nu, p)
		mu := -0.5 - r.Float64() // safely below the spectrum
		v := randVector(r, q.Dim())
		w := vec.Clone(v)
		if err := q.ApplyShiftInvert(w, mu); err != nil {
			return false
		}
		// (Q − µI)w must reproduce v.
		qw := vec.Clone(w)
		q.Apply(qw)
		vec.AXPY(-mu, w, qw)
		return vec.DistInf(qw, v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestShiftInvertRejectsEigenvalueShift: a µ on the spectrum, NaN or ±Inf
// returns an error and leaves v as it was.
func TestShiftInvertRejectsEigenvalueShift(t *testing.T) {
	q := MustUniform(4, 0.1)
	v := randVector(rng.New(11), 16)
	for name, mu := range map[string]float64{
		"µ = 1":       1.0,
		"µ = (1−2p)²": math.Pow(0.8, 2),
		"µ = NaN":     math.NaN(),
		"µ = +Inf":    math.Inf(1),
		"µ = −Inf":    math.Inf(-1),
	} {
		w := vec.Clone(v)
		if err := q.ApplyShiftInvert(w, mu); err == nil {
			t.Errorf("%s must be rejected", name)
		}
		if i, ok := sameBits(w, v); !ok {
			t.Errorf("%s: rejected shift changed entry %d from %v to %v", name, i, v[i], w[i])
		}
	}
}

// naiveShiftInvert is ApplyShiftInvert's reference: FWHTNaive, the
// per-weight scaling by (Λ − µI)⁻¹/N, FWHTNaive again.
func naiveShiftInvert(nu int, p float64, v []float64, mu float64) {
	inv := make([]float64, nu+1)
	lam := 1.0
	for k := range inv {
		inv[k] = 1 / (lam - mu)
		lam *= 1 - 2*p
	}
	FWHTNaive(v)
	scale := 1 / float64(len(v))
	for i := range v {
		v[i] *= inv[bits.Weight(uint64(i))] * scale
	}
	FWHTNaive(v)
}

// TestApplyShiftInvertBitIdenticalToNaive: the product on the blocked FWHT
// gives naiveShiftInvert's bits at ν = 1…16 on every kernel tier.
func TestApplyShiftInvertBitIdenticalToNaive(t *testing.T) {
	tiers := kernelTiers(t)
	r := rng.New(1616)
	for nu := 1; nu <= 16; nu++ {
		p := 0.001 + 0.45*r.Float64()
		q := MustUniform(nu, p)
		mu := -0.5 - r.Float64()
		v := randVector(r, q.Dim())
		want := vec.Clone(v)
		naiveShiftInvert(nu, p, want, mu)
		for _, tier := range tiers {
			vec.SetTier(tier)
			got := vec.Clone(v)
			if err := q.ApplyShiftInvert(got, mu); err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("ν=%d tier=%v: entry %d = %v, naive composition %v", nu, tier, i, got[i], want[i])
			}
		}
	}
}

func TestSpectralOpsRequireUniform(t *testing.T) {
	r := rng.New(10)
	factors := []Factor2{randStochasticFactor(r), randStochasticFactor(r)}
	q, err := NewPerSite(factors)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Uniform(); ok {
		t.Skip("random factors accidentally uniform")
	}
	for name, fn := range map[string]func(){
		"ShiftInvert": func() { _ = q.ApplyShiftInvert(make([]float64, 4), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on non-uniform process must panic", name)
				}
			}()
			fn()
		}()
	}
}
