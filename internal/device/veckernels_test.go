package device

import (
	"fmt"
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
	n := 2*vec.ReduceChunk + 3 // odd: exercises piece and lane tails
	x, y := randVec(r, n), randVec(r, n)
	for name, d := range devices() {
		dot, n2 := d.Dot(x, y), d.Norm2(x)
		res := d.ResidualNorm2(x, y, 0.4)
		for run := 0; run < 20; run++ {
			if d.Dot(x, y) != dot || d.Norm2(x) != n2 || d.ResidualNorm2(x, y, 0.4) != res {
				t.Fatalf("%s: reduction not bit-identical across runs (run %d)", name, run)
			}
		}
	}
}

func TestReductionsCloseToSerialVec(t *testing.T) {
	r := rng.New(13)
	n := 1 << 16
	x, y := randVec(r, n), randVec(r, n)
	want := 0.0
	for i := range x {
		rr := x[i] - 0.25*y[i]
		want += rr * rr
	}
	want = math.Sqrt(want)
	for name, d := range devices() {
		if got, want := d.Dot(x, y), vec.Dot(x, y); got != want {
			t.Errorf("%s: Dot = %v, serial %v", name, got, want)
		}
		if got, want := d.Norm2(x), vec.Norm2(x); got != want {
			t.Errorf("%s: Norm2 = %v, serial %v", name, got, want)
		}
		if got := d.ResidualNorm2(x, y, 0.25); math.Abs(got-want) > 1e-9*want+1e-12 {
			t.Errorf("%s: ResidualNorm2 = %v, want ≈ %v", name, got, want)
		}
	}
}

// reductionDevices returns a nil Device and devices of 1, 2, 3 and 8
// workers, each at the default grain and at grain 1.
func reductionDevices() map[string]*Device {
	ds := map[string]*Device{"nil": nil}
	for _, w := range []int{1, 2, 3, 8} {
		ds[fmt.Sprintf("%d-workers", w)] = New(w)
		ds[fmt.Sprintf("%d-workers grain 1", w)] = New(w, WithGrain(1))
	}
	return ds
}

// TestReductionsMatchSerialAtEveryWorkerCount: every reduction splits its
// operands on the same vec.ReduceChunk pieces as the serial vec call, so a
// nil Device and devices of 1, 2, 3 and 8 workers, at any grain, return
// vec's Dot, Norm2 (also through its range fallback), pass A and pass B
// bit for bit, and pass B writes the same w, on lengths of one piece and of
// several, with ragged piece and lane tails.
func TestReductionsMatchSerialAtEveryWorkerCount(t *testing.T) {
	r := rng.New(31)
	const c = vec.ReduceChunk
	for _, n := range []int{1, 7, c - 1, c, c + 1, 3*c + 5} {
		x, y := randVec(r, n), randVec(r, n)
		huge := append([]float64(nil), x...)
		huge[n/2] = 1e200
		wantDot, wantNorm := vec.Dot(x, y), vec.Norm2(x)
		wantHuge := vec.Norm2(huge)
		wantADot, wantANorm := vec.ShiftedDotNorm2(x, y, 0.37)
		wantW := append([]float64(nil), y...)
		wantB := vec.ShiftedResidualScale(x, wantW, 0.37, 0.29, 1.5)
		for name, d := range reductionDevices() {
			aDot, aNorm := d.ShiftedDotNorm2(x, y, 0.37)
			w := append([]float64(nil), y...)
			b := d.ShiftedResidualScale(x, w, 0.37, 0.29, 1.5)
			for what, pair := range map[string][2]float64{
				"Dot":            {d.Dot(x, y), wantDot},
				"Norm2":          {d.Norm2(x), wantNorm},
				"Norm2 fallback": {d.Norm2(huge), wantHuge},
				"pass A dot":     {aDot, wantADot},
				"pass A norm":    {aNorm, wantANorm},
				"pass B":         {b, wantB},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Errorf("n=%d %s: %s = %v, serial %v", n, name, what, pair[0], pair[1])
				}
			}
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(wantW[i]) {
					t.Fatalf("n=%d %s: pass B wrote %v at %d, serial %v", n, name, w[i], i, wantW[i])
				}
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
	const n = 2*vec.ReduceChunk + 3 // three pieces, so the sum launches
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
	for _, n := range []int{1, 3, 4, 7, 1000, 4099, 2*vec.ReduceChunk + 3} {
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

// TestReductionsAllocateNoMoreThanALaunch: a reduction keeps its piece
// partials in the launch's own batch, so Dot, Norm2, ResidualNorm2 and the
// fused passes allocate no more than a plain LaunchRange kernel (Scale). On
// a nil or 1-worker Device, or over one piece, they are the serial vec call
// and allocate nothing.
func TestReductionsAllocateNoMoreThanALaunch(t *testing.T) {
	r := rng.New(23)
	const n = 2*vec.ReduceChunk + 5
	x, w := randVec(r, n), randVec(r, n)
	reductions := func(d *Device, x, w []float64) map[string]func() {
		return map[string]func(){
			"Dot":                  func() { sink = d.Dot(x, w) },
			"Norm2":                func() { sink = d.Norm2(x) },
			"ResidualNorm2":        func() { sink = d.ResidualNorm2(w, x, 0.5) },
			"ShiftedDotNorm2":      func() { sink, _ = d.ShiftedDotNorm2(x, w, 0.5) },
			"ShiftedResidualScale": func() { sink = d.ShiftedResidualScale(x, w, 0, 0.5, 1) },
		}
	}
	for _, workers := range []int{2, 3} {
		d := New(workers)
		launch := testing.AllocsPerRun(20, func() { d.Scale(x, 1) })
		for name, f := range reductions(d, x, w) {
			got := testing.AllocsPerRun(20, f)
			if got > launch {
				t.Errorf("%d workers: %s allocates %.0f objects per call, a LaunchRange %.0f", workers, name, got, launch)
			}
			t.Logf("%d workers: %s %.0f allocs, LaunchRange %.0f", workers, name, got, launch)
		}
	}
	for name, d := range map[string]*Device{"nil": nil, "1-worker": New(1), "2-worker one-piece": New(2)} {
		xs, ws := x, w
		if d != nil && d.workers > 1 {
			xs, ws = x[:vec.ReduceChunk], w[:vec.ReduceChunk]
		}
		for what, f := range reductions(d, xs, ws) {
			if got := testing.AllocsPerRun(20, f); got != 0 {
				t.Errorf("%s device: %s allocates %.0f objects per call, want 0", name, what, got)
			}
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
