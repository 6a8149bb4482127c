package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/rng"
	"repro/internal/vec"
)

// concentrationsBySequence is Concentrations written out as the sequence
// of passes it replaced: NormInf, the clamp of small negatives, Normalize1.
// It returns the index of the first significantly negative entry, or −1.
func concentrationsBySequence(x []float64) int {
	nrm := vec.NormInf(x)
	for i, v := range x {
		if v < 0 {
			if v < -1e-9*nrm {
				return i
			}
			x[i] = 0
		}
	}
	vec.Normalize1(x)
	return -1
}

// perronLike returns a positive vector of length n with entries spread over
// several orders of magnitude, salted with negative round-off of up to
// 1e-12 of its maximum and a −0.
func perronLike(r *rng.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Exp(-8 * r.Float64())
		if i%5 == 3 {
			x[i] = -1e-12 * r.Float64()
		}
	}
	if n > 6 {
		x[6] = math.Copysign(0, -1)
	}
	return x
}

// Concentrations gives the bits of the written-out NormInf, clamp and
// Normalize1 sequence, on both kernel paths, and its significant-negative
// error names the same entry.
func TestConcentrationsMatchesSequence(t *testing.T) {
	was := vec.SetAVX2(true)
	defer vec.SetAVX2(was)
	r := rng.New(83)
	for _, avx := range []bool{true, false} {
		vec.SetAVX2(avx)
		for _, n := range []int{1, 2, 7, 64, 1001, 4096} {
			x := perronLike(r, n)
			want := append([]float64(nil), x...)
			if i := concentrationsBySequence(want); i >= 0 {
				t.Fatalf("n=%d: reference rejects entry %d", n, i)
			}
			if err := Concentrations(x); err != nil {
				t.Fatalf("avx=%v n=%d: %v", vec.UseAVX2(), n, err)
			}
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("avx=%v n=%d: entry %d = %v, the sequence gives %v", vec.UseAVX2(), n, i, x[i], want[i])
				}
			}
			bad := perronLike(r, n)
			bad[n/2] = -1e-3
			i := concentrationsBySequence(append([]float64(nil), bad...))
			if err := Concentrations(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("entry %d ", i)) {
				t.Fatalf("avx=%v n=%d: error %v, want one naming entry %d", vec.UseAVX2(), n, err, i)
			}
		}
	}
}

// A non-finite entry is an error naming the first such entry, and no error
// path writes x: neither a non-finite entry nor a significantly negative
// one after small negatives that a successful call would clamp.
func TestConcentrationsErrorsLeaveInput(t *testing.T) {
	cases := []struct {
		name string
		x    []float64
		want string
	}{
		{"NaN", []float64{0.5, -1e-14, 0.3, math.NaN(), 0.2, math.Inf(1)}, "entry 3 = NaN is not finite"},
		{"+Inf", []float64{0.5, -1e-14, math.Inf(1), 0.2, 0.1}, "entry 2 = +Inf is not finite"},
		{"−Inf", []float64{0.5, -1e-14, 0.3, 0.2, math.Inf(-1)}, "entry 4 = -Inf is not finite"},
		{"significant negative", []float64{0.5, -1e-14, 0.3, -1e-14, -0.2}, "entry 4 = -0.2 is significantly negative"},
		{"zero", []float64{0, math.Copysign(0, -1), 0, 0, 0}, "zero vector"},
	}
	for _, c := range cases {
		x := append([]float64(nil), c.x...)
		err := Concentrations(x)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(c.x[i]) {
				t.Errorf("%s: entry %d changed from %v to %v on the error path", c.name, i, c.x[i], x[i])
			}
		}
	}
}

// ClassConcentrations' blocked binning gives the bits of the per-entry
// loop for every ν from 0 to 14; ν < 4 takes the per-entry loop itself.
func TestClassConcentrationsMatchesLoop(t *testing.T) {
	r := rng.New(89)
	for nu := 0; nu <= 14; nu++ {
		x := perronLike(r, bits.SpaceSize(nu))
		want := make([]float64, nu+1)
		for i, v := range x {
			want[bits.Weight(uint64(i))] += v
		}
		got, err := ClassConcentrations(nu, x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("ν=%d: [Γ%d] = %v, the per-entry loop gives %v", nu, k, got[k], want[k])
			}
		}
	}
}

// orientPositive flips x when its first entry of the largest magnitude is
// negative, skips NaN entries, and allocates nothing.
func TestOrientPositive(t *testing.T) {
	cases := []struct {
		x    []float64
		flip bool
	}{
		{[]float64{0.1, -0.5, 0.5, 0.2, 0, 0.1}, true},
		{[]float64{0.1, 0.5, -0.5, 0.2, 0, 0.1}, false},
		{[]float64{math.NaN(), 0.2, -0.3, 0.1, 0.1}, true},
		{[]float64{0.1, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, -0.25, 0.1}, true},
		{[]float64{math.Copysign(0, -1), 0, 0, 0, 0}, false},
	}
	for _, c := range cases {
		x := append([]float64(nil), c.x...)
		orientPositive(x)
		for i, v := range c.x {
			want := v
			if c.flip {
				want = -v
			}
			if math.IsNaN(v) {
				continue
			}
			if math.Float64bits(x[i]) != math.Float64bits(want) {
				t.Errorf("orientPositive(%v) = %v; flip %v", c.x, x, c.flip)
				break
			}
		}
	}
	x := perronLike(rng.New(97), 4099)
	if allocs := testing.AllocsPerRun(10, func() { orientPositive(x) }); allocs != 0 {
		t.Errorf("orientPositive allocates %.0f objects per call", allocs)
	}
}
