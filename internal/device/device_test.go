package device

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vec"
)

func randVec(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

func devices() map[string]*Device {
	return map[string]*Device{
		"serial":     Serial(),
		"2-workers":  New(2, WithGrain(8)),
		"8-workers":  New(8, WithGrain(1)),
		"gomaxprocs": New(0),
	}
}

func TestLaunchCoversAllIDs(t *testing.T) {
	for name, d := range devices() {
		for _, n := range []int{0, 1, 7, 100, 10000} {
			hits := make([]atomic.Int32, n)
			d.launchEach(n, func(id int) { hits[id].Add(1) })
			for id := range hits {
				if got := hits[id].Load(); got != 1 {
					t.Fatalf("%s: id %d executed %d times (n=%d)", name, id, got, n)
				}
			}
		}
	}
}

func TestLaunchRangePartition(t *testing.T) {
	for name, d := range devices() {
		const n = 5000
		hits := make([]atomic.Int32, n)
		d.LaunchRange(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("%s: invalid chunk [%d,%d)", name, lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("%s: index %d covered %d times", name, i, hits[i].Load())
			}
		}
	}
}

func TestReduceSumMatchesSerial(t *testing.T) {
	r := rng.New(1)
	x := randVec(r, 3*vec.ReduceChunk+5)
	want := vec.Sum(x)
	for name, d := range devices() {
		got := d.reduceSum(len(x), func(i int) float64 { return x[i] })
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: reduceSum = %g, want %g", name, got, want)
		}
	}
}

func TestReduceDeterministicAcrossRuns(t *testing.T) {
	// The combination order is fixed by chunk index, so repeated runs must
	// produce bit-identical results despite goroutine scheduling.
	r := rng.New(2)
	x := randVec(r, 3*vec.ReduceChunk+5)
	d := New(4, WithGrain(16))
	first := d.reduceSum(len(x), func(i int) float64 { return x[i] })
	for run := 0; run < 20; run++ {
		if got := d.reduceSum(len(x), func(i int) float64 { return x[i] }); got != first {
			t.Fatalf("run %d: reduceSum = %v, want bit-identical %v", run, got, first)
		}
	}
}

func TestReduceEmptyReturnsIdentity(t *testing.T) {
	for name, d := range devices() {
		if got := d.reduceSum(0, func(int) float64 { return 1 }); got != 0 {
			t.Errorf("%s: empty reduceSum = %g, want 0", name, got)
		}
		dot, norm := d.ShiftedDotNorm2(nil, nil, 0.5)
		for what, got := range map[string]float64{
			"Dot": d.Dot(nil, nil), "Norm2": d.Norm2(nil), "pass A dot": dot, "pass A norm": norm,
			"ShiftedResidualScale": d.ShiftedResidualScale(nil, nil, 0.5, 1, 1),
		} {
			if got != 0 {
				t.Errorf("%s: empty %s = %g, want 0", name, what, got)
			}
		}
	}
}

func TestVecKernelsMatchSerial(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{12345, 2*vec.ReduceChunk + 12345} {
		x, y := randVec(r, n), randVec(r, n)
		for name, d := range devices() {
			if got, want := d.Dot(x, y), vec.Dot(x, y); got != want {
				t.Errorf("%s n=%d: Dot = %g want %g", name, n, got, want)
			}
			if got, want := d.Norm2(x), vec.Norm2(x); got != want {
				t.Errorf("%s n=%d: Norm2 = %g want %g", name, n, got, want)
			}
		}
	}
}

func TestDeviceScaleAXPYCopyMul(t *testing.T) {
	r := rng.New(4)
	n := 9999
	for name, d := range devices() {
		x, y := randVec(r, n), randVec(r, n)
		xs, ys := vec.Clone(x), vec.Clone(y)

		d.AXPY(1.5, x, y)
		vec.AXPY(1.5, xs, ys)
		if vec.DistInf(y, ys) != 0 {
			t.Errorf("%s AXPY mismatch", name)
		}

		d.Scale(y, 0.25)
		vec.Scale(ys, 0.25)
		if vec.DistInf(y, ys) != 0 {
			t.Errorf("%s Scale mismatch", name)
		}

		dst1, dst2 := make([]float64, n), make([]float64, n)
		d.Mul(dst1, x, y)
		vec.Mul(dst2, xs, ys)
		if vec.DistInf(dst1, dst2) != 0 {
			t.Errorf("%s Mul mismatch", name)
		}

		d.Copy(dst1, x)
		if vec.DistInf(dst1, x) != 0 {
			t.Errorf("%s Copy mismatch", name)
		}
	}
}

func TestResidualNorm2(t *testing.T) {
	r := rng.New(5)
	n := 4097
	w, x := randVec(r, n), randVec(r, n)
	lambda := 1.7
	want := 0.0
	for i := range w {
		d := w[i] - lambda*x[i]
		want += d * d
	}
	want = math.Sqrt(want)
	for name, d := range devices() {
		if got := d.ResidualNorm2(w, x, lambda); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s ResidualNorm2 = %g want %g", name, got, want)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(0).workers < 1 {
		t.Error("New(0) must select at least one worker")
	}
	if New(3).workers != 3 {
		t.Error("explicit worker count not honored")
	}
	if Serial().workers != 1 {
		t.Error("Serial must have one worker")
	}
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + int(r.Uint64n(3*vec.ReduceChunk))
		x, y := randVec(r, n), randVec(r, n)
		return New(7, WithGrain(13)).Dot(x, y) == Serial().Dot(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
