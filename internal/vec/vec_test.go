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

// laneSum is Σ f(k) for k < n in the documented 4-lane order: four lanes by
// index mod 4 combined as ((s0+s1)+s2)+s3, then the last n mod 4 terms in
// index order.
func laneSum(n int, f func(k int) float64) float64 {
	var lanes [4]float64
	body := n - n%4
	for k := 0; k < body; k++ {
		lanes[k%4] += f(k)
	}
	s := ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
	for k := body; k < n; k++ {
		s += f(k)
	}
	return s
}

// laneSumSq is the 4-lane sum of squares of Norm2, LanczosTail, Combine
// and the power passes.
func laneSumSq(x []float64) float64 {
	return laneSum(len(x), func(k int) float64 { return x[k] * x[k] })
}

// leftFold is Σ f(k) for k < n as one accumulator chain, the order no
// kernel uses.
func leftFold(n int, f func(k int) float64) float64 {
	var s float64
	for k := 0; k < n; k++ {
		s += f(k)
	}
	return s
}

// scaledNorm is ‖x‖₂ by the scaled accumulation ‖x‖₂ = scale·√q, one
// division per element: NormFromSumSq's range fallback, written out.
func scaledNorm(x []float64) float64 {
	var scale, q float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			scale, q = a, 1+q*r*r
		} else {
			r := a / scale
			q += r * r
		}
	}
	return scale * math.Sqrt(q)
}

// TestFusedPowerPassesBitIdenticalToUnfused pins the serial power-step
// passes against the sequence they replace, in the 4-lane order: pass A ≡
// AXPY(−µ), then the 4-lane dot and the square root of the 4-lane sum of
// squares; pass B ≡ AXPY(−µ), the 4-lane residual sum and Scale. The data
// are of normal range, so no sum takes the range fallback and every lane
// shows in the bits: a strict left fold gives different ones, which the
// first check asserts for this data. Lengths cover every
// tail, and a −0 entry checks that µ = 0 reads w itself.
func TestFusedPowerPassesBitIdenticalToUnfused(t *testing.T) {
	r := rng.New(29)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 1000, 1001} {
		x, w := randVec(r, n), randVec(r, n)
		w[n/2] = math.Copysign(0, -1)
		for _, mu := range []float64{0, 0.41} {
			t0 := Clone(w)
			if mu != 0 {
				AXPY(-mu, x, t0)
			}
			wantDot := laneSum(n, func(k int) float64 { return x[k] * t0[k] })
			wantNorm := math.Sqrt(laneSumSq(t0))
			if n == 1000 && (wantDot == leftFold(n, func(k int) float64 { return x[k] * t0[k] }) ||
				laneSumSq(t0) == leftFold(n, func(k int) float64 { return t0[k] * t0[k] })) {
				t.Fatalf("µ=%g: the data cannot tell the 4-lane order from a left fold", mu)
			}
			if gotDot, gotNorm := ShiftedDotNorm2(x, w, mu); gotDot != wantDot || gotNorm != wantNorm {
				t.Fatalf("n=%d µ=%g: pass A = (%v, %v), unfused (%v, %v)", n, mu, gotDot, gotNorm, wantDot, wantNorm)
			}
			lambda, c := 0.23, 1/wantNorm
			wantRes := math.Sqrt(laneSum(n, func(k int) float64 {
				e := t0[k] - lambda*x[k]
				return e * e
			}))
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

// TestPowerPassNormRangeFallback: when pass A's Σt² leaves [2⁻⁹⁰⁰, 2⁹⁰⁰] —
// an entry near 1e200 overflows it, entries near 1e-200 underflow it — the
// norm is the scaled accumulation over t, so it equals Norm2 of the
// materialized t bit for bit and stays finite and nonzero.
func TestPowerPassNormRangeFallback(t *testing.T) {
	r := rng.New(43)
	for _, n := range []int{1, 5, 1000} {
		for _, huge := range []bool{true, false} {
			x, w := randVec(r, n), randVec(r, n)
			if huge {
				w[n/2] *= 1e200
			} else {
				Scale(x, 1e-200)
				Scale(w, 1e-200)
			}
			for _, mu := range []float64{0, 0.41} {
				t0 := Clone(w)
				if mu != 0 {
					AXPY(-mu, x, t0)
				}
				if _, ssq := ShiftedDotSumSq(x, w, mu); ssq >= 0x1p-900 && ssq <= 0x1p900 {
					t.Fatalf("n=%d huge=%v µ=%g: Σt² = %v is in range; the fallback is not exercised", n, huge, mu, ssq)
				}
				want := Norm2(t0)
				_, got := ShiftedDotNorm2(x, w, mu)
				if math.Float64bits(got) != math.Float64bits(want) || !(got > 0) || math.IsInf(got, 0) {
					t.Fatalf("n=%d huge=%v µ=%g: pass A norm %v, Norm2 of t %v", n, huge, mu, got, want)
				}
			}
		}
	}
}

// TestLanczosTailMatchesAXPYs pins the fused Lanczos tail, element for
// element, and its sum of squares against the documented 4-lane order: in
// place with c = 1 it is the two AXPYs it replaces; into a separate dst
// with c ≠ 1 it writes ((c·w) − α·v) − β·u and leaves w alone. A nil u
// drops the β term.
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
			got := Clone(w)
			gotSq := LanczosTail(got, got, v, prev, 1, alpha, beta)
			if wantSq := laneSumSq(want); gotSq != wantSq {
				t.Fatalf("n=%d u=%v: Σw² = %v, want %v", n, prev != nil, gotSq, wantSq)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d u=%v: w[%d] = %v, AXPYs give %v", n, prev != nil, i, got[i], want[i])
				}
			}

			const c = 1.7
			for i := range want {
				want[i] = c*w[i] - alpha*v[i]
				if prev != nil {
					want[i] -= beta * prev[i]
				}
			}
			dst, w0 := make([]float64, n), Clone(w)
			gotSq = LanczosTail(dst, w, v, prev, c, alpha, beta)
			if wantSq := laneSumSq(want); gotSq != wantSq {
				t.Fatalf("n=%d u=%v c=%g: Σdst² = %v, want %v", n, prev != nil, c, gotSq, wantSq)
			}
			for i := range dst {
				if dst[i] != want[i] || w[i] != w0[i] {
					t.Fatalf("n=%d u=%v c=%g: dst[%d] = %v, want %v (w %v → %v)", n, prev != nil, c, i, dst[i], want[i], w0[i], w[i])
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
// chunk order; it agrees with Dot to rounding, and exactly within one
// chunk.
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
				want += laneSum(len(x), func(k int) float64 { return x[k] * y[k] })
			}
			if math.Float64bits(c[j]) != math.Float64bits(want) {
				t.Fatalf("n=%d: c[%d] = %v, documented order %v", n, j, c[j], want)
			}
			if !almost(c[j], Dot(basis[j], w), 1e-12) || n <= combineChunk && c[j] != Dot(basis[j], w) {
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
	// Dot sums in the 4-lane order, not as a left fold.
	r := rng.New(1)
	x, y = randVec(r, 1001), randVec(r, 1001)
	prod := func(k int) float64 { return x[k] * y[k] }
	if got, want := Dot(x, y), laneSum(len(x), prod); got != want || got == leftFold(len(x), prod) {
		t.Errorf("Dot = %v, 4-lane order %v, left fold %v", got, want, leftFold(len(x), prod))
	}
}

// TestReductionsSumOnFixedPieces: Dot, Norm2 and the two power passes sum
// each ReduceChunk piece with their 4-lane kernel and add the piece
// partials in ascending order, the first one seeding the sum, so a vector
// of at most ReduceChunk entries is one kernel call.
func TestReductionsSumOnFixedPieces(t *testing.T) {
	r := rng.New(61)
	const c = ReduceChunk
	for _, n := range []int{1, c - 1, c, c + 1, 3*c + 5} {
		x, w := randVec(r, n), randVec(r, n)
		var dot, ssq, aDot, aSsq, bSsq float64
		wantW := Clone(w)
		for lo := 0; lo < n; lo += c {
			hi := min(lo+c, n)
			d, q := DotLanes(x[lo:hi], w[lo:hi]), SumSq(x[lo:hi])
			ad, aq := ShiftedDotSumSq(x[lo:hi], w[lo:hi], 0.41)
			bq := ShiftedResidualSumSq(x[lo:hi], wantW[lo:hi], 0.41, 0.3, 1.5)
			if lo == 0 {
				dot, ssq, aDot, aSsq, bSsq = d, q, ad, aq, bq
				continue
			}
			dot, ssq, aDot, aSsq, bSsq = dot+d, ssq+q, aDot+ad, aSsq+aq, bSsq+bq
		}
		gotADot, gotANorm := ShiftedDotNorm2(x, w, 0.41)
		gotW := Clone(w)
		for name, pair := range map[string][2]float64{
			"Dot":         {Dot(x, w), dot},
			"Norm2":       {Norm2(x), math.Sqrt(ssq)},
			"pass A dot":  {gotADot, aDot},
			"pass A norm": {gotANorm, math.Sqrt(aSsq)},
			"pass B":      {ShiftedResidualScale(x, gotW, 0.41, 0.3, 1.5), math.Sqrt(bSsq)},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("n=%d: %s = %v, piecewise %v", n, name, pair[0], pair[1])
			}
		}
		if DistInf(gotW, wantW) != 0 {
			t.Errorf("n=%d: pass B wrote a w that differs from the piecewise kernels'", n)
		}
		if n <= c && Dot(x, w) != DotLanes(x, w) {
			t.Errorf("n=%d: a one-piece Dot is not the kernel call", n)
		}
		for name, f := range map[string]func(){
			"Dot":                  func() { Dot(x, w) },
			"Norm2":                func() { Norm2(x) },
			"ShiftedDotNorm2":      func() { ShiftedDotNorm2(x, w, 0.41) },
			"ShiftedResidualScale": func() { ShiftedResidualScale(x, gotW, 0.41, 0.3, 1) },
		} {
			if allocs := testing.AllocsPerRun(5, f); allocs != 0 {
				t.Errorf("n=%d: %s allocates %v objects per call", n, name, allocs)
			}
		}
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
	if a, b := Sum(x), SumKahan(x); !almost(a, b, 1e-10) {
		t.Errorf("sums disagree: %g %g", a, b)
	}
}

// Sum and Norm1 sum in the 4-lane order, not as a left fold: for
// xᵢ = 1/(i+3), n = 1001, the left fold of Norm1 reads 5.988464874514436.
// NormInf skips NaN entries.
func TestSumNorm1LaneOrder(t *testing.T) {
	x := make([]float64, 1001)
	for i := range x {
		x[i] = 1 / float64(i+3)
	}
	elem := func(k int) float64 { return x[k] }
	if got, want := Sum(x), laneSum(len(x), elem); got != want || got == leftFold(len(x), elem) {
		t.Errorf("Sum = %v, 4-lane order %v, left fold %v", got, want, leftFold(len(x), elem))
	}
	for i := range x {
		if i%2 == 1 {
			x[i] = -x[i]
		}
	}
	abs := func(k int) float64 { return math.Abs(x[k]) }
	if got, want := Norm1(x), laneSum(len(x), abs); got != want || got == leftFold(len(x), abs) {
		t.Errorf("Norm1 = %v, 4-lane order %v, left fold %v", got, want, leftFold(len(x), abs))
	}
	// Norm1Lanes carries the lanes across chunks whose lengths are
	// multiples of 4, so a chunked sum folds to Norm1 itself.
	if got, want := norm1Chunked(x)[4], Norm1(x); got != want {
		t.Errorf("Norm1Lanes over chunks folds to %v, Norm1 %v", got, want)
	}
	x[0], x[500] = -7, math.NaN()
	if got := NormInf(x); got != 7 {
		t.Errorf("NormInf with a NaN entry = %v, want 7 (NaN skipped)", got)
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

// TestNorm2RangeFallback: Norm2 is √ of the 4-lane sum of squares while
// that sum lies in [2⁻⁹⁰⁰, 2⁹⁰⁰]; a 1e200 entry overflows it and entries
// near 1e-200 underflow it, and the norm is then the scaled accumulation,
// bit for bit, finite and nonzero. A NaN entry gives NaN.
func TestNorm2RangeFallback(t *testing.T) {
	r := rng.New(47)
	for _, n := range []int{1, 5, 1000} {
		x := randVec(r, n)
		if got, want := Norm2(x), math.Sqrt(laneSumSq(x)); got != want {
			t.Fatalf("n=%d: Norm2 = %v in range, √ of the 4-lane sum %v", n, got, want)
		}
		huge, tiny := Clone(x), Clone(x)
		huge[n/2] = 1e200
		Scale(tiny, 1e-200)
		for name, v := range map[string][]float64{"1e200": huge, "1e-200": tiny} {
			if ssq := SumSq(v); ssq >= 0x1p-900 && ssq <= 0x1p900 {
				t.Fatalf("n=%d %s: Σx² = %v is in range; the fallback is not exercised", n, name, ssq)
			}
			got, want := Norm2(v), scaledNorm(v)
			if math.Float64bits(got) != math.Float64bits(want) || !(got > 0) || math.IsInf(got, 0) {
				t.Fatalf("n=%d %s: Norm2 = %v, scaled accumulation %v", n, name, got, want)
			}
		}
		x[n-1] = math.NaN()
		if got := Norm2(x); !math.IsNaN(got) {
			t.Fatalf("n=%d: Norm2 with a NaN entry = %v", n, got)
		}
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

func TestDistances(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 4, 0}
	if DistInf(x, y) != 3 {
		t.Errorf("DistInf = %g", DistInf(x, y))
	}
}

func TestPredicates(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("AllFinite false negative")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite false positive")
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

// FitErrors sums each fit's squared errors in the 4-lane order, with the
// fits and products rounded as the written-out expressions below round
// them; on this data the left fold of e₃ differs from that order.
func TestFitErrorsLaneOrder(t *testing.T) {
	r := rng.New(67)
	for _, n := range []int{0, 1, 5, 64, 1001} {
		x, h1, h2, h3 := randVec(r, n), randVec(r, n), randVec(r, n), randVec(r, n)
		w2, w3 := [2]float64{2, -1}, [3]float64{3, -3, 1}
		sq := func(d float64) float64 { return float64(d * d) }
		d := [3]func(k int) float64{
			func(k int) float64 { return sq(x[k] - h1[k]) },
			func(k int) float64 { return sq(x[k] - (float64(w2[0]*h1[k]) + float64(w2[1]*h2[k]))) },
			func(k int) float64 {
				return sq(x[k] - (float64(w3[0]*h1[k]) + float64(w3[1]*h2[k]) + float64(w3[2]*h3[k])))
			},
		}
		e1, e2, e3 := FitErrors(x, h1, h2, h3, w2, w3)
		for j, got := range []float64{e1, e2, e3} {
			if want := laneSum(n, d[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d: e%d = %v, 4-lane order %v", n, j+1, got, want)
			}
		}
		if n == 1001 && e3 == leftFold(n, d[2]) {
			t.Errorf("n=%d: e3 = %v is also the left fold; the data no longer tells the orders apart", n, e3)
		}
	}
}

// Extrapolate writes what the per-element loop of the extrapolated warm
// start wrote, bit for bit, and leaves the old x in h3, at every order.
func TestExtrapolateMatchesLoop(t *testing.T) {
	r := rng.New(71)
	l := [4]float64{4.1, -6.3, 4.2, -1.05}
	for k := 2; k <= 4; k++ {
		for _, n := range []int{0, 3, 64, 67} {
			x, h1, h2, h3 := randVec(r, n), randVec(r, n), randVec(r, n), randVec(r, n)
			want, wantH3 := make([]float64, n), Clone(x)
			for i, a := range x {
				want[i] = float64(l[0]*a) + float64(l[1]*h1[i])
				if k >= 3 {
					want[i] += float64(l[2] * h2[i])
				}
				if k == 4 {
					want[i] += float64(l[3] * h3[i])
				}
			}
			Extrapolate(x, h1, h2, h3, l, k)
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) || h3[i] != wantH3[i] {
					t.Fatalf("k=%d n=%d: entry %d = %v, h3 %v; want %v, %v", k, n, i, x[i], h3[i], want[i], wantH3[i])
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Extrapolate of order 1 did not panic")
		}
	}()
	Extrapolate(nil, nil, nil, nil, l, 1)
}

// ConcentrationScan's max|x| is NormInf, its minimum is min x, and its
// clamped sum is Norm1 of x with the negatives zeroed, bit for bit; a NaN
// entry is skipped by the first two and carried by the sum.
func TestConcentrationScan(t *testing.T) {
	r := rng.New(73)
	for _, n := range []int{0, 1, 7, 64, 1001} {
		x := randVec(r, n)
		clamped := Clone(x)
		least := math.Inf(1)
		for i, v := range x {
			least = min(least, v)
			if v < 0 {
				clamped[i] = 0
			}
		}
		m, l, s := ConcentrationScan(x)
		if m != NormInf(x) || l != least || math.Float64bits(s) != math.Float64bits(Norm1(clamped)) {
			t.Errorf("n=%d: scan (%v, %v, %v), want (%v, %v, %v)", n, m, l, s, NormInf(x), least, Norm1(clamped))
		}
		if n > 0 {
			x[n/2] = math.NaN()
			m, l, s = ConcentrationScan(x)
			if math.IsNaN(m) || math.IsNaN(l) || !math.IsNaN(s) {
				t.Errorf("n=%d with a NaN entry: scan (%v, %v, %v), want NaN in the sum only", n, m, l, s)
			}
		}
	}
	x := []float64{0.5, -0.25, math.Copysign(0, -1), 2}
	ClampScale(x, 0.5)
	if x[0] != 0.25 || math.Float64bits(x[1]) != 0 || !math.Signbit(x[2]) || x[3] != 1 {
		t.Errorf("ClampScale = %v, want [0.25 +0 -0 1]", x)
	}
}
