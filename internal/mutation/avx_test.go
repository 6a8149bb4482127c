package mutation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
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
// (stochastic pairs) and FWHT (Hadamard pairs), across sizes that exercise
// the first-pass, tile pair, cross quad and lone cross stage code shapes;
// then ApplyFused (see checkApplyFusedAVX2MatchesGo). Skipped on hosts without AVX2, where only
// the Go path exists.
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
		p := 231.0 / 1024 // dyadic, so the stochastic kind triggers exactly

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
		check("FWHT", FWHT)
	}
	checkApplyFusedAVX2MatchesGo(t)
}

// checkApplyFusedAVX2MatchesGo runs ApplyFused once with AVX2 and once on
// the Go kernels and compares the two, so a bug shared by ApplyFused and
// Apply under one gate still shows. It covers a pre scale and none, in place
// and out of place, serial and 2 device workers, tiles from below the
// first-pass kernel's 16-element block to the default, stochastic and
// mixed-kind runs (a general second stage pair leaves the kernel its
// radix-4-only form), and inputs with −0, subnormals, NaN and ±Inf and
// src·pre products that round. Go does not pin NaN payloads,
// so any two NaNs compare equal; every other value must match bit for bit.
func checkApplyFusedAVX2MatchesGo(t *testing.T) {
	t.Helper()
	r := rng.New(2033)
	devs := map[string]*device.Device{"serial": nil, "2-workers": device.New(2, device.WithGrain(64))}
	for _, nu := range []int{3, 4, 5, 13, 17} {
		n := 1 << uint(nu)
		// Each kind also runs once with its own non-finite entry in src
		// and in pre.
		procs := []struct {
			name    string
			q       *Process
			special float64
		}{
			{"stochastic", processOfKind(r, kindStochastic, nu), math.NaN()},
			{"general", processOfKind(r, kindGeneral, nu), math.Inf(1)},
			{"mixed", mixedKindProcess(r, nu), math.Inf(-1)},
		}
		for _, p := range procs {
			for _, withSpecial := range []bool{false, true} {
				src, pre := parityVector(r, n), parityVector(r, n)
				if withSpecial {
					src[r.Uint64n(uint64(n))] = p.special
					pre[r.Uint64n(uint64(n))] = p.special
				}
				for _, tb := range []int{3, 4, 5, defaultTileBits} {
					withTileBits(t, tb, func() {
						for dname, dev := range devs {
							for _, d := range [][]float64{pre, nil} {
								for _, inPlace := range []bool{false, true} {
									run := func(avx bool) []float64 {
										vec.SetAVX2(avx)
										dst := make([]float64, n)
										in := src
										if inPlace {
											copy(dst, src)
											in = dst
										}
										p.q.ApplyFused(dev, dst, in, d, Epilogue{})
										return dst
									}
									a, b := run(true), run(false)
									for i := range a {
										if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
											t.Fatalf("ApplyFused %s ν=%d tb=%d %s special=%v pre=%v in-place=%v: AVX2 and Go differ at %d: %v vs %v",
												p.name, nu, tb, dname, withSpecial, d != nil, inPlace, i, a[i], b[i])
										}
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// mixedKindProcess is a single-bit process whose first stage pair is
// stochastic and whose second is general.
func mixedKindProcess(r *rng.Source, nu int) *Process {
	fs := factorsForKind(r, kindStochastic, nu)
	if nu >= 4 {
		copy(fs[2:4], factorsForKind(r, kindGeneral, 2))
	}
	gs := make([]group, nu)
	for k := range gs {
		gs[k] = group{offset: k, bitsLen: 1, f2: fs[k]}
	}
	q := &Process{nu: nu, n: 1 << uint(nu), groups: gs}
	q.finalize()
	return q
}

// parityVector returns n normal deviates with about one entry in sixteen
// replaced by −0 and one in sixteen by a subnormal.
func parityVector(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r.Uint64n(16) {
		case 0:
			v[i] = math.Copysign(0, -1)
		case 1:
			v[i] = math.SmallestNonzeroFloat64 * float64(1+r.Uint64n(1<<40))
		default:
			v[i] = r.Normal()
		}
	}
	return v
}
