package mutation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/vec"
)

func TestXmvpFullMatchesDense(t *testing.T) {
	// Xmvp(ν) "is basically identical to Smvp" — here exactly, since both
	// sum the same terms.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(9))
		p := 0.001 + 0.499*r.Float64()
		x := mustXmvp(nu, p, nu)
		v := randVector(r, x.Dim())
		want := make([]float64, x.Dim())
		Dense(nu, p).MatVec(want, v)
		got := make([]float64, x.Dim())
		x.Apply(got, v)
		return vec.DistInf(got, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestXmvpFullMatchesFmmp(t *testing.T) {
	r := rng.New(3)
	for _, nu := range []int{4, 8, 12} {
		const p = 0.01
		q := MustUniform(nu, p)
		x := mustXmvp(nu, p, nu)
		v := randVector(r, q.Dim())
		fm := vec.Clone(v)
		q.Apply(fm)
		xm := make([]float64, q.Dim())
		x.Apply(xm, v)
		if d := vec.DistInf(fm, xm); d > 1e-12 {
			t.Errorf("ν=%d: Fmmp vs Xmvp(ν) differ by %g", nu, d)
		}
	}
}

func TestXmvpTruncationErrorDecreasesWithDmax(t *testing.T) {
	// The approximation error must fall monotonically (in norm) as dmax
	// grows, reaching ~1e-10 around dmax = 5 for small p (paper, Sec. 4).
	const nu = 12
	const p = 0.01
	r := rng.New(4)
	q := MustUniform(nu, p)
	v := make([]float64, q.Dim())
	for i := range v {
		v[i] = r.Float64()
	}
	vec.Normalize1(v)
	exact := vec.Clone(v)
	q.Apply(exact)

	prevErr := math.Inf(1)
	for dmax := 0; dmax <= nu; dmax++ {
		x := mustXmvp(nu, p, dmax)
		approx := make([]float64, q.Dim())
		x.Apply(approx, v)
		errNorm := dist2(approx, exact)
		if errNorm > prevErr*(1+1e-12) {
			t.Errorf("dmax=%d: error %g did not decrease from %g", dmax, errNorm, prevErr)
		}
		prevErr = errNorm
		if dmax == 5 && errNorm > 1e-8 {
			t.Errorf("Xmvp(5) error %g, expected ≲1e-8 for p=0.01 (paper: ≈1e-10)", errNorm)
		}
		if dmax == nu && errNorm > 1e-13 {
			t.Errorf("Xmvp(ν) must be exact, error %g", errNorm)
		}
	}
}

func TestXmvpMaskCount(t *testing.T) {
	for _, c := range []struct{ nu, dmax int }{{10, 1}, {10, 3}, {25, 5}, {8, 8}} {
		x := mustXmvp(c.nu, 0.01, c.dmax)
		if got, want := uint64(x.MaskCount()), bits.NeighborhoodSize(c.nu, c.dmax); got != want {
			t.Errorf("ν=%d dmax=%d: %d masks, want %d", c.nu, c.dmax, got, want)
		}
	}
}

func TestXmvpDmaxClamped(t *testing.T) {
	x := mustXmvp(6, 0.01, 100)
	if x.DMax() != 6 {
		t.Errorf("DMax = %d, want clamped 6", x.DMax())
	}
}

func TestXmvpDeviceMatchesSerial(t *testing.T) {
	r := rng.New(5)
	x := mustXmvp(10, 0.02, 3)
	v := randVector(r, x.Dim())
	serial := make([]float64, x.Dim())
	x.Apply(serial, v)
	for _, workers := range []int{1, 4} {
		par := make([]float64, x.Dim())
		x.ApplyDevice(device.New(workers, device.WithGrain(8)), par, v)
		if vec.DistInf(serial, par) != 0 {
			t.Errorf("workers=%d: device Xmvp differs", workers)
		}
	}
}

func TestXmvpValidation(t *testing.T) {
	if _, err := NewXmvp(5, 0, 2); err == nil {
		t.Error("invalid p must be rejected")
	}
	if _, err := NewXmvp(-1, 0.1, 2); err == nil {
		t.Error("negative ν must be rejected")
	}
	if _, err := NewXmvp(5, 0.1, -1); err == nil {
		t.Error("negative dmax must be rejected")
	}
	if _, err := NewXmvp(40, 0.1, 20); err == nil {
		t.Error("oversized mask table must be rejected")
	}
}

func TestXmvpAliasPanics(t *testing.T) {
	x := mustXmvp(4, 0.1, 2)
	v := make([]float64, 16)
	defer func() {
		if recover() == nil {
			t.Error("aliased Apply must panic")
		}
	}()
	x.Apply(v, v)
}

// mustXmvp is NewXmvp that panics on error.
func mustXmvp(nu int, p float64, dmax int) *Xmvp {
	x, err := NewXmvp(nu, p, dmax)
	if err != nil {
		panic(err)
	}
	return x
}

// dist2 returns ‖x − y‖₂ of equal-length x and y.
func dist2(x, y []float64) float64 {
	var s float64
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}
