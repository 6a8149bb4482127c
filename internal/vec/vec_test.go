package vec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

const eps = 1e-12

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randVec(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// TestFusedPowerPassesBitIdenticalToUnfused pins the serial power-step
// passes against the sequence they replace: pass A ≡ AXPY(−µ) then Dot and
// Norm2; pass B ≡ AXPY(−µ), the strict residual fold and Scale. Zeros and
// a magnitude jump exercise every branch of the scaled norm.
func TestFusedPowerPassesBitIdenticalToUnfused(t *testing.T) {
	r := rng.New(29)
	for _, n := range []int{1, 2, 5, 1000} {
		x, w := randVec(r, n), randVec(r, n)
		w[0], w[n/2] = 0, 1e200*w[n/2]
		for _, mu := range []float64{0, 0.41} {
			t0 := Clone(w)
			if mu != 0 {
				AXPY(-mu, x, t0)
			}
			wantDot, wantNorm := Dot(x, t0), Norm2(t0)
			if gotDot, gotNorm := ShiftedDotNorm2(x, w, mu); gotDot != wantDot || gotNorm != wantNorm {
				t.Fatalf("n=%d µ=%g: pass A = (%v, %v), unfused (%v, %v)", n, mu, gotDot, gotNorm, wantDot, wantNorm)
			}
			lambda, c := 0.23, 1/wantNorm
			var s float64
			for i, ti := range t0 {
				e := ti - lambda*x[i]
				s += e * e
			}
			wantRes := math.Sqrt(s)
			Scale(t0, c)
			got := Clone(w)
			if gotRes := ShiftedResidualScale(x, got, mu, lambda, c); gotRes != wantRes {
				t.Fatalf("n=%d µ=%g: pass B residual %v, unfused %v", n, mu, gotRes, wantRes)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(t0[i]) {
					t.Fatalf("n=%d µ=%g: pass B wrote %v at %d, unfused %v", n, mu, got[i], i, t0[i])
				}
			}
		}
	}
}

// laneSumSq is the documented sum-of-squares order of LanczosTail and
// Combine: four lanes by index mod 4 combined as ((s0+s1)+s2)+s3, then the
// last len(x) mod 4 entries in index order.
func laneSumSq(x []float64) float64 {
	var lanes [4]float64
	body := len(x) - len(x)%4
	for i, v := range x[:body] {
		lanes[i%4] += v * v
	}
	s := ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
	for _, v := range x[body:] {
		s += v * v
	}
	return s
}

// TestLanczosTailMatchesAXPYs pins the fused Lanczos tail against the two
// AXPYs it replaces, element for element, and its sum of squares against
// the documented 4-lane order; a nil u drops the β term.
func TestLanczosTailMatchesAXPYs(t *testing.T) {
	r := rng.New(31)
	for _, n := range []int{1, 3, 4, 7, 1001} {
		w, v, u := randVec(r, n), randVec(r, n), randVec(r, n)
		for _, prev := range [][]float64{nil, u} {
			const alpha, beta = 0.37, -1.9
			want := Clone(w)
			AXPY(-alpha, v, want)
			if prev != nil {
				AXPY(-beta, prev, want)
			}
			wantSq := laneSumSq(want)
			got := Clone(w)
			gotSq := LanczosTail(got, v, prev, alpha, beta)
			if gotSq != wantSq {
				t.Fatalf("n=%d u=%v: Σw² = %v, want %v", n, prev != nil, gotSq, wantSq)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d u=%v: w[%d] = %v, AXPYs give %v", n, prev != nil, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCombineMatchesAXPYs pins Combine element for element against the
// sequential AXPY loop it replaces, from a zeroed and from a live dst, for
// dimensions around the chunk length and term counts up to a probe basis,
// and its Σdst² bit for bit against LanczosTail's order. The ±0 and
// magnitude-jump entries make any change in the per-element operation
// order visible.
func TestCombineMatchesAXPYs(t *testing.T) {
	r := rng.New(37)
	for _, n := range []int{1, 3, 4, 7, combineChunk - 1, combineChunk, combineChunk + 1, 2*combineChunk + 13} {
		for _, k := range []int{0, 1, 2, 5, 24} {
			basis := make([][]float64, k+1) // one vector more than terms
			for j := range basis {
				basis[j] = randVec(r, n)
			}
			if k > 0 {
				basis[0][0], basis[k-1][n-1] = 0, 1e150*basis[k-1][n-1]
			}
			c := randVec(r, k)
			for _, live := range []bool{false, true} {
				dst := make([]float64, n)
				if live {
					dst = randVec(r, n)
					dst[n/2] = math.Copysign(0, -1)
				}
				want := Clone(dst)
				for j, a := range c {
					AXPY(a, basis[j], want)
				}
				gotSq := Combine(dst, basis, c)
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d k=%d live=%v: dst[%d] = %v, AXPY loop %v", n, k, live, i, dst[i], want[i])
					}
				}
				if wantSq := laneSumSq(want); math.Float64bits(gotSq) != math.Float64bits(wantSq) {
					t.Fatalf("n=%d k=%d live=%v: Σdst² = %v, LanczosTail's order %v", n, k, live, gotSq, wantSq)
				}
			}
		}
	}
}

// TestDotEachOrder pins DotEach's documented order: per chunk, four lanes
// ((s0+s1)+s2)+s3 plus the chunk's tail in index order, chunk sums added in
// chunk order; it agrees with Dot to rounding.
func TestDotEachOrder(t *testing.T) {
	r := rng.New(41)
	for _, n := range []int{1, 6, combineChunk, 2*combineChunk + 13} {
		w := randVec(r, n)
		basis := [][]float64{randVec(r, n), randVec(r, n), randVec(r, n)}
		c := []float64{7, 7} // overwritten; the third vector has no coefficient
		DotEach(c, basis, w)
		for j := range c {
			var want float64
			for lo := 0; lo < n; lo += combineChunk {
				x, y := basis[j][lo:min(lo+combineChunk, n)], w[lo:min(lo+combineChunk, n)]
				var lanes [4]float64
				body := len(x) - len(x)%4
				for i := range x[:body] {
					lanes[i%4] += x[i] * y[i]
				}
				s := ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
				for i := body; i < len(x); i++ {
					s += x[i] * y[i]
				}
				want += s
			}
			if math.Float64bits(c[j]) != math.Float64bits(want) {
				t.Fatalf("n=%d: c[%d] = %v, documented order %v", n, j, c[j], want)
			}
			if !almost(c[j], Dot(basis[j], w), 1e-12) {
				t.Errorf("n=%d: c[%d] = %v, Dot %v", n, j, c[j], Dot(basis[j], w))
			}
		}
	}
}

func TestCombineAndDotEachPanicOnMismatch(t *testing.T) {
	x, short := make([]float64, 4), make([]float64, 3)
	for name, fn := range map[string]func(){
		"Combine length":       func() { Combine(x, [][]float64{x, short}, []float64{1, 1}) },
		"Combine coefficients": func() { Combine(x, [][]float64{x}, []float64{1, 1}) },
		"DotEach length":       func() { DotEach([]float64{0, 0}, [][]float64{x, short}, x) },
		"DotEach coefficients": func() { DotEach([]float64{0, 0}, [][]float64{x}, x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Errorf("Dot = %g, want 12", got)
	}
}

func TestDotKahanMatchesDot(t *testing.T) {
	r := rng.New(1)
	x, y := randVec(r, 10001), randVec(r, 10001)
	if !almost(Dot(x, y), DotKahan(x, y), 1e-9) {
		t.Errorf("Dot = %g vs DotKahan = %g", Dot(x, y), DotKahan(x, y))
	}
}

func TestKahanBeatsNaiveOnAdversarialSum(t *testing.T) {
	// 1 followed by many tiny values that a naive sum absorbs to nothing.
	n := 1 << 20
	x := make([]float64, n+1)
	x[0] = 1
	for i := 1; i <= n; i++ {
		x[i] = 1e-16
	}
	want := 1 + float64(n)*1e-16
	if errK := math.Abs(SumKahan(x) - want); errK > 1e-18 {
		t.Errorf("Kahan error %g too large", errK)
	}
}

func TestSumVariants(t *testing.T) {
	r := rng.New(2)
	x := randVec(r, 4097)
	a, b, c := Sum(x), SumKahan(x), SumPairwise(x)
	if !almost(a, b, 1e-10) || !almost(a, c, 1e-10) {
		t.Errorf("sums disagree: %g %g %g", a, b, c)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if Norm1(x) != 7 {
		t.Errorf("Norm1 = %g", Norm1(x))
	}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %g", Norm2(x))
	}
	if NormInf(x) != 4 {
		t.Errorf("NormInf = %g", NormInf(x))
	}
}

func TestNorm2NoOverflow(t *testing.T) {
	x := []float64{1e300, 1e300}
	want := 1e300 * math.Sqrt2
	if !almost(Norm2(x), want, 1e-14) {
		t.Errorf("Norm2 overflow handling: got %g want %g", Norm2(x), want)
	}
	y := []float64{1e-300, 1e-300}
	if Norm2(y) == 0 {
		t.Error("Norm2 underflowed to zero")
	}
}

func TestNormInequalities(t *testing.T) {
	// ‖x‖∞ ≤ ‖x‖₂ ≤ ‖x‖₁ for all x.
	f := func(raw []float64) bool {
		x := raw
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				x[i] = 0
			}
			// Clamp to avoid overflow differences in the naive comparisons.
			if math.Abs(x[i]) > 1e100 {
				x[i] = math.Copysign(1e100, x[i])
			}
		}
		n1, n2, ni := Norm1(x), Norm2(x), NormInf(x)
		return ni <= n2*(1+eps) && n2 <= n1*(1+eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleAXPY(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	AXPY(2, x, y)
	for i, want := range []float64{12, 24, 36} {
		if y[i] != want {
			t.Fatalf("AXPY result %v", y)
		}
	}
	Scale(y, 0.5)
	for i, want := range []float64{6, 12, 18} {
		if y[i] != want {
			t.Fatalf("Scale result %v", y)
		}
	}
}

func TestMulElementwise(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	dst := make([]float64, 3)
	Mul(dst, x, y)
	for i, want := range []float64{4, 10, 18} {
		if dst[i] != want {
			t.Fatalf("Mul result %v", dst)
		}
	}
	// Aliasing: dst == x.
	Mul(x, x, y)
	for i, want := range []float64{4, 10, 18} {
		if x[i] != want {
			t.Fatalf("aliased Mul result %v", x)
		}
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{1, 3}
	old := Normalize1(x)
	if old != 4 || !almost(Norm1(x), 1, eps) {
		t.Errorf("Normalize1: old=%g x=%v", old, x)
	}
	y := []float64{3, 4}
	Normalize2(y)
	if !almost(Norm2(y), 1, eps) {
		t.Errorf("Normalize2: %v", y)
	}
}

func TestNormalizePanicsOnZero(t *testing.T) {
	for name, fn := range map[string]func([]float64) float64{"Normalize1": Normalize1, "Normalize2": Normalize2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of zero vector must panic", name)
				}
			}()
			fn([]float64{0, 0})
		}()
	}
}

func TestMaxMinIndex(t *testing.T) {
	x := []float64{-1, 7, 3, 7}
	i, v := MaxIndex(x)
	if i != 1 || v != 7 {
		t.Errorf("MaxIndex = (%d,%g)", i, v)
	}
	if Min(x) != -1 || Max(x) != 7 {
		t.Errorf("Min/Max wrong")
	}
}

func TestDistances(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 4, 0}
	if DistInf(x, y) != 3 {
		t.Errorf("DistInf = %g", DistInf(x, y))
	}
	if !almost(Dist2(x, y), math.Sqrt(13), eps) {
		t.Errorf("Dist2 = %g", Dist2(x, y))
	}
}

func TestPredicates(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("AllFinite false negative")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite false positive")
	}
	if !AllPositive([]float64{1, 2}) || AllPositive([]float64{1, 0}) {
		t.Error("AllPositive wrong")
	}
	if !AllNonNegative([]float64{0, -1e-16}, 1e-12) {
		t.Error("AllNonNegative must tolerate tiny negatives")
	}
	if AllNonNegative([]float64{-1}, 1e-12) {
		t.Error("AllNonNegative false positive")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	x, y := make([]float64, 3), make([]float64, 4)
	for name, fn := range map[string]func(){
		"Dot":     func() { Dot(x, y) },
		"AXPY":    func() { AXPY(1, x, y) },
		"Copy":    func() { Copy(x, y) },
		"Mul":     func() { Mul(x, x, y) },
		"Dist2":   func() { Dist2(x, y) },
		"DistInf": func() { DistInf(x, y) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCauchySchwarz(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + int(r.Uint64n(200))
		x, y := randVec(r, n), randVec(r, n)
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
