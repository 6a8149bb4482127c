package device

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// refFourLane reproduces the documented reduction order of one chunk —
// lane ℓ sums elements ℓ, ℓ+4, …, lanes combine as ((s0+s1)+s2)+s3, tail
// folds on in index order — for an arbitrary element function. The kernel
// implementations must match it BIT-exactly.
func refFourLane(n int, f func(k int) float64) float64 {
	var lane [4]float64
	k := 0
	for ; k+4 <= n; k += 4 {
		for l := 0; l < 4; l++ {
			lane[l] += f(k + l)
		}
	}
	s := ((lane[0] + lane[1]) + lane[2]) + lane[3]
	for ; k < n; k++ {
		s += f(k)
	}
	return s
}

func TestChunkKernelsMatchDocumentedOrder(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 1023, 4096} {
		x, y := randVec(r, n), randVec(r, n)
		if got, want := vec.DotLanes(x, y), refFourLane(n, func(k int) float64 { return x[k] * y[k] }); got != want {
			t.Errorf("n=%d: vec.DotLanes = %v, want %v (order contract)", n, got, want)
		}
		if got, want := vec.Sum(x), refFourLane(n, func(k int) float64 { return x[k] }); got != want {
			t.Errorf("n=%d: vec.Sum = %v, want %v", n, got, want)
		}
		if got, want := vec.Norm1(x), refFourLane(n, func(k int) float64 { return math.Abs(x[k]) }); got != want {
			t.Errorf("n=%d: vec.Norm1 = %v, want %v", n, got, want)
		}
		if got, want := vec.SumSq(x), refFourLane(n, func(k int) float64 { return x[k] * x[k] }); got != want {
			t.Errorf("n=%d: vec.SumSq = %v, want %v", n, got, want)
		}
		// The residual chunk is pass A's Σt² with µ = λ: t = x + (−λ)·y is
		// x − λ·y bit for bit.
		lambda := 0.37
		if _, got := vec.ShiftedDotSumSq(y, x, lambda); got != refFourLane(n, func(k int) float64 {
			r := x[k] - lambda*y[k]
			return r * r
		}) {
			t.Errorf("n=%d: residual chunk = %v, want the 4-lane Σ(x − λy)²", n, got)
		}
		// Max is exactly order-independent; still must equal a plain fold.
		var want float64
		for _, v := range x {
			want = math.Max(want, math.Abs(v))
		}
		if got := vec.NormInf(x); got != want {
			t.Errorf("n=%d: vec.NormInf = %v, want %v", n, got, want)
		}
	}
}

func TestReductionsBitIdenticalAcrossRuns(t *testing.T) {
	r := rng.New(11)
	n := 100003 // odd: exercises chunk tails
	x, y := randVec(r, n), randVec(r, n)
	for name, d := range devices() {
		dot, sum, n1, n2, ninf := d.Dot(x, y), d.Sum(x), d.Norm1(x), d.Norm2(x), d.NormInf(x)
		res := d.ResidualNorm2(x, y, 0.4)
		for run := 0; run < 20; run++ {
			if d.Dot(x, y) != dot || d.Sum(x) != sum || d.Norm1(x) != n1 ||
				d.Norm2(x) != n2 || d.NormInf(x) != ninf || d.ResidualNorm2(x, y, 0.4) != res {
				t.Fatalf("%s: reduction not bit-identical across runs (run %d)", name, run)
			}
		}
	}
}

func TestReductionsCloseToSerialVec(t *testing.T) {
	r := rng.New(13)
	n := 1 << 16
	x, y := randVec(r, n), randVec(r, n)
	for name, d := range devices() {
		if got, want := d.Dot(x, y), vec.Dot(x, y); math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Errorf("%s: Dot = %v, want ≈ %v", name, got, want)
		}
		if got, want := d.Norm2(x), vec.Norm2(x); math.Abs(got-want) > 1e-9*want+1e-12 {
			t.Errorf("%s: Norm2 = %v, want ≈ %v", name, got, want)
		}
		want := 0.0
		for i := range x {
			rr := x[i] - 0.25*y[i]
			want += rr * rr
		}
		want = math.Sqrt(want)
		if got := d.ResidualNorm2(x, y, 0.25); math.Abs(got-want) > 1e-9*want+1e-12 {
			t.Errorf("%s: ResidualNorm2 = %v, want ≈ %v", name, got, want)
		}
	}
}

// TestSerialMatchesOneWorkerDevice: a 1-worker Device reduces over one
// chunk, so its Dot, Sum, Norm1, Norm2, NormInf and ResidualNorm2 are the
// serial vec.Dot, vec.Sum, vec.Norm1, vec.Norm2, vec.NormInf and pass A's
// norm with µ = λ (the serial residual) bit for bit,
// on lengths with every lane tail, across several default chunks, and on a
// norm that takes the range fallback.
func TestSerialMatchesOneWorkerDevice(t *testing.T) {
	r := rng.New(31)
	d := New(1)
	for _, n := range []int{1, 3, 4, 7, 1000, 4099, 100003} {
		x, y := randVec(r, n), randVec(r, n)
		huge := append([]float64(nil), x...)
		huge[n/2] = 1e200
		for name, pair := range map[string][2]float64{
			"Dot":            {d.Dot(x, y), vec.Dot(x, y)},
			"Sum":            {d.Sum(x), vec.Sum(x)},
			"Norm1":          {d.Norm1(x), vec.Norm1(x)},
			"NormInf":        {d.NormInf(x), vec.NormInf(x)},
			"Norm2":          {d.Norm2(x), vec.Norm2(x)},
			"Norm2 fallback": {d.Norm2(huge), vec.Norm2(huge)},
			"ResidualNorm2":  {d.ResidualNorm2(x, y, 0.37), func() float64 { _, r := vec.ShiftedDotNorm2(y, x, 0.37); return r }()},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("n=%d: 1-worker %s = %v, serial %v", n, name, pair[0], pair[1])
			}
		}
	}
}

// TestNorm2RangeCheckMatchesSerial: a 1e200 entry overflows the plain sum
// of squares, and the range check then recomputes the norm scaled, so
// Norm2 and pass A's norm through a 2-worker device equal the serial
// vec.Norm2 and vec.ShiftedDotNorm2 bit for bit instead of reading +Inf.
func TestNorm2RangeCheckMatchesSerial(t *testing.T) {
	r := rng.New(29)
	const n = 100003 // two chunks at the default grain
	x, w := randVec(r, n), randVec(r, n)
	w[n/2] = 1e200
	d := New(2)
	if got, want := d.Norm2(w), vec.Norm2(w); math.Float64bits(got) != math.Float64bits(want) || math.IsInf(got, 0) {
		t.Errorf("2-worker Norm2 = %v, serial %v", got, want)
	}
	for _, mu := range []float64{0, 0.37} {
		_, got := d.ShiftedDotNorm2(x, w, mu)
		_, want := vec.ShiftedDotNorm2(x, w, mu)
		if math.Float64bits(got) != math.Float64bits(want) || math.IsInf(got, 0) {
			t.Errorf("µ=%g: 2-worker pass A norm = %v, serial %v", mu, got, want)
		}
	}
}

// TestFusedPowerPassesBitIdenticalToUnfused pins the fused power-step
// passes against the kernel sequence they replace, on every device shape
// and on lengths with ragged chunk and lane tails: pass A ≡ AXPY(−µ) then
// Dot and Norm2; pass B ≡ AXPY(−µ) then ResidualNorm2 and Scale. µ = 0
// skips the AXPY, as the power iteration does.
func TestFusedPowerPassesBitIdenticalToUnfused(t *testing.T) {
	r := rng.New(19)
	for _, n := range []int{1, 3, 4, 7, 1000, 4099, 100003} {
		x, w := randVec(r, n), randVec(r, n)
		for name, d := range devices() {
			for _, mu := range []float64{0, 0.37} {
				t0 := append([]float64(nil), w...)
				if mu != 0 {
					d.AXPY(-mu, x, t0)
				}
				wantDot, wantNorm := d.Dot(x, t0), d.Norm2(t0)
				gotDot, gotNorm := d.ShiftedDotNorm2(x, w, mu)
				if gotDot != wantDot || gotNorm != wantNorm {
					t.Fatalf("%s n=%d µ=%g: pass A = (%v, %v), unfused (%v, %v)", name, n, mu, gotDot, gotNorm, wantDot, wantNorm)
				}
				lambda, c := 0.29, 1/wantNorm
				wantRes := d.ResidualNorm2(t0, x, lambda)
				d.Scale(t0, c)
				got := append([]float64(nil), w...)
				if gotRes := d.ShiftedResidualScale(x, got, mu, lambda, c); gotRes != wantRes {
					t.Fatalf("%s n=%d µ=%g: pass B residual %v, unfused %v", name, n, mu, gotRes, wantRes)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(t0[i]) {
						t.Fatalf("%s n=%d µ=%g: pass B wrote %v at %d, unfused %v", name, n, mu, got[i], i, t0[i])
					}
				}
			}
		}
	}
}

// TestReductionsAllocateNoMoreThanALaunch: a reduction keeps its chunk
// partials in the launch's own batch, so Dot, Norm2, ResidualNorm2 and the
// fused passes allocate no more than a plain LaunchRange kernel (Scale).
func TestReductionsAllocateNoMoreThanALaunch(t *testing.T) {
	r := rng.New(23)
	const n = 1 << 15
	x, w := randVec(r, n), randVec(r, n)
	for _, workers := range []int{1, 2, 3} {
		d := New(workers)
		launch := testing.AllocsPerRun(20, func() { d.Scale(x, 1) })
		for name, f := range map[string]func(){
			"Dot":                  func() { sink = d.Dot(x, w) },
			"Norm2":                func() { sink = d.Norm2(x) },
			"ResidualNorm2":        func() { sink = d.ResidualNorm2(w, x, 0.5) },
			"ShiftedDotNorm2":      func() { sink, _ = d.ShiftedDotNorm2(x, w, 0.5) },
			"ShiftedResidualScale": func() { sink = d.ShiftedResidualScale(x, w, 0, 0.5, 1) },
		} {
			got := testing.AllocsPerRun(20, f)
			if got > launch {
				t.Errorf("%d workers: %s allocates %.0f objects per call, a LaunchRange %.0f", workers, name, got, launch)
			}
			t.Logf("%d workers: %s %.0f allocs, LaunchRange %.0f", workers, name, got, launch)
		}
	}
}

var sink float64

func TestElementwiseKernelsBitIdenticalToVec(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{0, 1, 3, 4, 5, 1000, 99991} {
		x, y := randVec(r, n), randVec(r, n)
		for name, d := range devices() {
			xs, ys := append([]float64(nil), x...), append([]float64(nil), y...)
			xd, yd := append([]float64(nil), x...), append([]float64(nil), y...)

			vec.AXPY(1.75, xs, ys)
			d.AXPY(1.75, xd, yd)
			if n > 0 && vec.DistInf(ys, yd) != 0 {
				t.Fatalf("%s n=%d: AXPY not bit-identical to vec.AXPY", name, n)
			}

			vec.Scale(xs, 0.3)
			d.Scale(xd, 0.3)
			if n > 0 && vec.DistInf(xs, xd) != 0 {
				t.Fatalf("%s n=%d: Scale not bit-identical to vec.Scale", name, n)
			}

			ms, md := make([]float64, n), make([]float64, n)
			vec.Mul(ms, xs, ys)
			d.Mul(md, xd, yd)
			if n > 0 && vec.DistInf(ms, md) != 0 {
				t.Fatalf("%s n=%d: Mul not bit-identical to vec.Mul", name, n)
			}
		}
	}
}
