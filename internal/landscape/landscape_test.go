package landscape

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bits"
)

// checkBounds checks lo ≤ fᵢ ≤ hi with lo > 0 on the first 2^16 sequences
// and on one sequence 2^k − 1 of every class k. For a class landscape,
// whose Bounds are its ϕ table's minimum and maximum, it also checks that
// both are attained.
func checkBounds(t *testing.T, l Landscape) {
	t.Helper()
	lo, hi := l.Bounds()
	if lo <= 0 {
		t.Fatalf("lower bound %g not positive", lo)
	}
	fmin, fmax := math.Inf(1), math.Inf(-1)
	check := func(i uint64) {
		f := l.At(i)
		if f < lo || f > hi {
			t.Fatalf("f[%d] = %g outside bounds [%g, %g]", i, f, lo, hi)
		}
		fmin, fmax = math.Min(fmin, f), math.Max(fmax, f)
	}
	for i := 0; i < min(l.Dim(), 1<<16); i++ {
		check(uint64(i))
	}
	for k := 0; k <= l.ChainLen(); k++ {
		check(1<<k - 1)
	}
	if _, ok := l.(*ErrorClass); ok && (fmin != lo || fmax != hi) {
		t.Fatalf("class landscape attains [%g, %g], bounds [%g, %g]", fmin, fmax, lo, hi)
	}
}

func TestSinglePeak(t *testing.T) {
	s, err := NewSinglePeak(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != 2 {
		t.Error("master fitness wrong")
	}
	for _, i := range []uint64{1, 5, 1023} {
		if s.At(i) != 1 {
			t.Errorf("f[%d] = %g", i, s.At(i))
		}
	}
	if s.Dim() != 1024 || s.ChainLen() != 10 {
		t.Error("dims wrong")
	}
	checkBounds(t, s)
}

func TestSinglePeakValidation(t *testing.T) {
	if _, err := NewSinglePeak(5, 0, 1); !errors.Is(err, ErrNonPositive) {
		t.Error("peak 0 must be rejected")
	}
	if _, err := NewSinglePeak(5, 1, -1); !errors.Is(err, ErrNonPositive) {
		t.Error("negative base must be rejected")
	}
}

func TestLinearEndpointsAndSlope(t *testing.T) {
	l, err := NewLinear(20, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.At(0) != 2 {
		t.Errorf("f₀ = %g, want 2", l.At(0))
	}
	full := uint64(1<<20 - 1)
	if math.Abs(l.At(full)-1) > 1e-15 {
		t.Errorf("f at distance ν = %g, want 1", l.At(full))
	}
	// Halfway.
	if got := l.Phi(10); math.Abs(got-1.5) > 1e-15 {
		t.Errorf("ϕ(10) = %g, want 1.5", got)
	}
	checkBounds(t, l)
}

func TestLinearDependsOnlyOnWeight(t *testing.T) {
	l, _ := NewLinear(8, 3, 1)
	for i := uint64(0); i < 256; i++ {
		if l.At(i) != l.Phi(bits.Weight(i)) {
			t.Fatalf("linear landscape not class based at %d", i)
		}
	}
}

func TestErrorClassLandscape(t *testing.T) {
	phi := []float64{5, 3, 2, 1, 0.5}
	e, err := NewErrorClass(phi)
	if err != nil {
		t.Fatal(err)
	}
	if e.ChainLen() != 4 || e.Dim() != 16 {
		t.Error("dims wrong")
	}
	for i := uint64(0); i < 16; i++ {
		if e.At(i) != phi[bits.Weight(i)] {
			t.Fatalf("f[%d] wrong", i)
		}
	}
	checkBounds(t, e)
	// Table copies are independent.
	tab := e.PhiTable()
	tab[0] = 999
	if e.Phi(0) != 5 {
		t.Error("PhiTable aliases internal state")
	}
	phi[1] = -1
	if e.Phi(1) != 3 {
		t.Error("constructor aliases caller slice")
	}
}

func TestErrorClassValidation(t *testing.T) {
	if _, err := NewErrorClass([]float64{1, 0, 1}); !errors.Is(err, ErrNonPositive) {
		t.Error("zero ϕ must be rejected")
	}
	if _, err := NewErrorClass(nil); err == nil {
		t.Error("empty ϕ must be rejected")
	}
}

func TestRandomLandscapeEq13(t *testing.T) {
	r, err := NewRandom(12, 5, 1, 123)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(0) != 5 {
		t.Errorf("f₀ = %g, want c = 5", r.At(0))
	}
	// fᵢ = σ(η+0.5) ∈ [0.5, 1.5) for σ = 1.
	for i := uint64(1); i < 4096; i++ {
		f := r.At(i)
		if f < 0.5 || f >= 1.5 {
			t.Fatalf("f[%d] = %g outside [0.5, 1.5)", i, f)
		}
	}
	checkBounds(t, r)
}

func TestRandomLandscapeDeterministicRandomAccess(t *testing.T) {
	a, _ := NewRandom(20, 5, 1, 7)
	b, _ := NewRandom(20, 5, 1, 7)
	for _, i := range []uint64{1, 99, 1 << 19, 1<<20 - 1} {
		if a.At(i) != b.At(i) {
			t.Fatalf("same seed differs at %d", i)
		}
	}
	c, _ := NewRandom(20, 5, 1, 8)
	diff := 0
	for i := uint64(1); i < 100; i++ {
		if a.At(i) != c.At(i) {
			diff++
		}
	}
	if diff < 95 {
		t.Errorf("different seeds share %d of 99 values", 99-diff)
	}
}

func TestRandomLandscapeMeanIsUnbiased(t *testing.T) {
	r, _ := NewRandom(16, 5, 1, 42)
	var sum float64
	n := 1 << 16
	for i := 1; i < n; i++ {
		sum += r.At(uint64(i))
	}
	mean := sum / float64(n-1)
	if math.Abs(mean-1.0) > 0.01 {
		t.Errorf("mean fitness %g, want ≈ σ·1.0 = 1", mean)
	}
}

func TestRandomValidation(t *testing.T) {
	if _, err := NewRandom(5, 0, 1, 0); err == nil {
		t.Error("c = 0 must be rejected")
	}
	if _, err := NewRandom(5, 5, 2.5, 0); err == nil {
		t.Error("σ = c/2 must be rejected (must be strictly inside)")
	}
	if _, err := NewRandom(5, 5, 0, 0); err == nil {
		t.Error("σ = 0 must be rejected")
	}
}

func TestVectorLandscape(t *testing.T) {
	v, err := NewVector([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.ChainLen() != 2 || v.Dim() != 4 {
		t.Error("dims wrong")
	}
	if v.At(2) != 3 {
		t.Error("At wrong")
	}
	checkBounds(t, v)
}

func TestVectorValidation(t *testing.T) {
	if _, err := NewVector([]float64{1, 2, 3}); err == nil {
		t.Error("non-power-of-two length must be rejected")
	}
	if _, err := NewVector([]float64{1, -2}); !errors.Is(err, ErrNonPositive) {
		t.Error("negative fitness must be rejected")
	}
	if _, err := NewVector(nil); err == nil {
		t.Error("empty vector must be rejected")
	}
}

func TestVectorConstructorCopies(t *testing.T) {
	f := []float64{1, 2}
	v, _ := NewVector(f)
	f[0] = 99
	if v.At(0) != 1 {
		t.Error("NewVector aliases caller slice")
	}
}

func TestUniformLandscape(t *testing.T) {
	u, err := NewUniform(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if u.At(i) != 3 {
			t.Fatal("uniform landscape not uniform")
		}
	}
	checkBounds(t, u)
}

func TestClassBasedDetection(t *testing.T) {
	sp, _ := NewSinglePeak(4, 2, 1)
	lin, _ := NewLinear(4, 2, 1)
	ec, _ := NewErrorClass([]float64{1, 2, 3, 4, 5})
	uni, _ := NewUniform(4, 2)
	for name, l := range map[string]Landscape{"singlepeak": sp, "linear": lin, "errorclass": ec, "uniform": uni} {
		phi, ok := ClassBased(l)
		if !ok || len(phi) != 5 {
			t.Errorf("%s: ClassBased = (%v,%v)", name, phi, ok)
		}
		for i := uint64(0); i < 16; i++ {
			if phi[bits.Weight(i)] != l.At(i) {
				t.Errorf("%s: ϕ table inconsistent at %d", name, i)
			}
		}
	}
	// A class-structured explicit vector is detected…
	ecv, _ := NewVector(Materialize(ec))
	if _, ok := ClassBased(ecv); !ok {
		t.Error("class-structured vector not detected")
	}
	// …and a genuinely unstructured one is not.
	rl, _ := NewRandom(4, 5, 1, 3)
	rv, _ := NewVector(Materialize(rl))
	if _, ok := ClassBased(rv); ok {
		t.Error("random vector misdetected as class based")
	}
	if _, ok := ClassBased(rl); ok {
		t.Error("Random landscape misdetected as class based")
	}
}

func TestMaterializeMatchesAt(t *testing.T) {
	r, _ := NewRandom(10, 5, 1, 99)
	f := Materialize(r)
	for i := range f {
		if f[i] != r.At(uint64(i)) {
			t.Fatalf("Materialize differs at %d", i)
		}
	}
}

// TestBoundsAreValidEnvelopes: Bounds enclose every fitness value, and a
// class landscape's are the values it attains, also for a linear landscape
// whose far end rounds below f_ν (f[1023] = 0.09999999999999998 for f₀ = 1,
// f_ν = 0.1) and for a ν = 0 single peak, whose one sequence is the peak.
func TestBoundsAreValidEnvelopes(t *testing.T) {
	r, _ := NewRandom(14, 5, 2, 11)
	lin, _ := NewLinear(10, 1, 0.1)
	sp, _ := NewSinglePeak(0, 2, 1)
	for _, l := range []Landscape{r, lin, sp} {
		checkBounds(t, l)
	}
}
