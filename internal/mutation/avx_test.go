package mutation

import (
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// avxModes returns the kernel paths this host can run — AVX2 and pure Go
// where AVX2 was detected, pure Go elsewhere — and restores the dispatch
// gate when the test ends.
func avxModes(t *testing.T) []bool {
	was := vec.SetAVX2(true)
	t.Cleanup(func() { vec.SetAVX2(was) })
	if vec.UseAVX2() {
		return []bool{true, false}
	}
	return []bool{false}
}

// TestAVX2KernelsBitIdenticalToScalar toggles the AVX2 dispatch gate and
// asserts the assembly and pure-Go kernel paths produce bit-identical
// results for every transform that dispatches to assembly: Apply
// (stochastic pairs), ApplyInverse (unit-difference pairs) and FWHT
// (Hadamard pairs), across sizes that exercise the tile pair, cross quad
// and odd-stage code shapes. Skipped on hosts without AVX2, where only the
// Go path exists.
func TestAVX2KernelsBitIdenticalToScalar(t *testing.T) {
	if len(avxModes(t)) == 1 {
		t.Skip("host has no AVX2; single code path")
	}

	rng := rand.New(rand.NewSource(71))
	for _, nu := range []int{2, 3, 5, 8, 11, 13, 14, 15} {
		n := 1 << uint(nu)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		p := 231.0 / 1024 // dyadic, so both reduced kinds trigger exactly

		q := MustUniform(nu, p)
		check := func(name string, transform func([]float64)) {
			a := append([]float64(nil), v...)
			b := append([]float64(nil), v...)
			vec.SetAVX2(true)
			transform(a)
			vec.SetAVX2(false)
			transform(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("ν=%d %s: AVX2 and scalar paths differ at %d: %g vs %g",
						nu, name, i, a[i], b[i])
				}
			}
		}
		check("Apply", q.Apply)
		check("ApplyInverse", q.ApplyInverse)
		check("FWHT", FWHT)
	}
}
