package mutation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/dense"
	"repro/internal/device"
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
		FWHTNormalized(w)
		FWHTNormalized(w)
		return vec.DistInf(w, v) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFWHTDeviceMatchesSerial(t *testing.T) {
	r := rng.New(2)
	for _, nu := range []int{1, 4, 10} {
		v := randVector(r, 1<<nu)
		serial := vec.Clone(v)
		FWHT(serial)
		for _, workers := range []int{1, 3, 8} {
			par := vec.Clone(v)
			FWHTDevice(device.New(workers, device.WithGrain(2)), par)
			if vec.DistInf(serial, par) != 0 {
				t.Errorf("ν=%d workers=%d: device FWHT differs", nu, workers)
			}
		}
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

func TestEigenvectorEntryMatchesHadamard(t *testing.T) {
	// V(ν)[i][j] from the componentwise formula must equal H/√N entrywise.
	const nu = 6
	n := 1 << nu
	h := hadamardDense(nu)
	scale := 1 / math.Sqrt(float64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := h.At(i, j) * scale
			if got := EigenvectorEntry(nu, uint64(i), uint64(j)); math.Abs(got-want) > 1e-15 {
				t.Fatalf("V[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
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
		lams := q.Eigenvalues()
		scale := 1 / float64(q.Dim())
		for i := range got {
			got[i] *= lams[i] * scale
		}
		FWHT(got)
		return vec.DistInf(got, want) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEigenvalueMultiplicities(t *testing.T) {
	// Eigenvalue (1−2p)^k has multiplicity C(ν,k).
	const nu = 10
	const p = 0.02
	q := MustUniform(nu, p)
	lams := q.Eigenvalues()
	counts := map[int]uint64{}
	for i, l := range lams {
		k := bits.Weight(uint64(i))
		counts[k]++
		want := math.Pow(1-2*p, float64(k))
		if math.Abs(l-want) > 1e-14 {
			t.Fatalf("λ[%d] = %g, want %g", i, l, want)
		}
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

func TestShiftInvertRejectsEigenvalueShift(t *testing.T) {
	q := MustUniform(4, 0.1)
	if err := q.ApplyShiftInvert(make([]float64, 16), 1.0); err == nil {
		t.Error("µ = 1 is an eigenvalue of Q and must be rejected")
	}
	if err := q.ApplyShiftInvert(make([]float64, 16), math.Pow(0.8, 2)); err == nil {
		t.Error("µ = (1−2p)² is an eigenvalue of Q and must be rejected")
	}
}

func TestShiftInvertDeviceMatchesSerial(t *testing.T) {
	r := rng.New(9)
	q := MustUniform(10, 0.01)
	v := randVector(r, q.Dim())
	serial := vec.Clone(v)
	if err := q.ApplyShiftInvert(serial, -0.7); err != nil {
		t.Fatal(err)
	}
	par := vec.Clone(v)
	if err := q.ApplyShiftInvertDevice(device.New(4, device.WithGrain(16)), par, -0.7); err != nil {
		t.Fatal(err)
	}
	if vec.DistInf(serial, par) > 1e-13 {
		t.Errorf("device shift-invert differs by %g", vec.DistInf(serial, par))
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
		"Eigenvalues": func() { q.Eigenvalues() },
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
