package mutation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/vec"
)

// kernelTiers returns the kernel tiers this host can run, fastest first —
// AVX-512, AVX2 and Go where the CPU has them all — and restores the active
// tier when the test ends.
func kernelTiers(t testing.TB) []vec.Tier {
	was := vec.SetTier(vec.TierAVX512)
	t.Cleanup(func() { vec.SetTier(was) })
	return vec.Tiers()
}

// sameBits reports whether a and b agree bit for bit, any two NaNs
// counting as equal (Go does not pin NaN payloads), and otherwise the
// first index where they differ.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// acrossTiers runs f on a copy of v at every kernel tier and fails unless
// every tier reproduces the Go tier bit for bit.
func acrossTiers(t *testing.T, tiers []vec.Tier, name string, v []float64, f func([]float64)) {
	t.Helper()
	out := make([][]float64, len(tiers))
	for k, tier := range tiers {
		vec.SetTier(tier)
		out[k] = append([]float64(nil), v...)
		f(out[k])
	}
	gold := out[len(out)-1]
	for k := range out[:len(out)-1] {
		if i, ok := sameBits(out[k], gold); !ok {
			t.Fatalf("%s: %v and %v differ at %d: %v vs %v", name, tiers[k], tiers[len(tiers)-1], i, out[k][i], gold[i])
		}
	}
}

// TestAVX2KernelsBitIdenticalToScalar switches the kernel tier and asserts
// that every tier the host has (AVX-512, AVX2, Go) produces bit-identical
// results for every transform that dispatches to assembly: Apply of the
// uniform and of a general process and FWHT (general pairs on ±1), across sizes
// that exercise the first-pass, tile pair, cross quad and lone cross stage
// code shapes;
// then each butterfly body on the shapes either side of its ZMM guard (see
// checkZMMGuards) and ApplyFused (see checkApplyFusedAVX2MatchesGo).
// Skipped on hosts without AVX2, where only the Go path exists.
func TestAVX2KernelsBitIdenticalToScalar(t *testing.T) {
	tiers := kernelTiers(t)
	if len(tiers) == 1 {
		t.Skip("host has no AVX2; single code path")
	}

	gen := rng.New(73)
	rng := rand.New(rand.NewSource(71))
	for _, nu := range []int{2, 3, 5, 8, 11, 13, 14, 15} {
		n := 1 << uint(nu)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		p := 231.0 / 1024 // dyadic, so the stochastic kind triggers exactly

		q := MustUniform(nu, p)
		acrossTiers(t, tiers, fmt.Sprintf("ν=%d Apply", nu), v, q.Apply)
		g := processOfKind(gen, kindGeneral, nu)
		acrossTiers(t, tiers, fmt.Sprintf("ν=%d general Apply", nu), v, g.Apply)
		acrossTiers(t, tiers, fmt.Sprintf("ν=%d FWHT", nu), v, FWHT)
	}
	checkZMMGuards(t, tiers)
	checkApplyFusedAVX2MatchesGo(t, tiers)
}

// checkZMMGuards runs each butterfly body of both kinds, stochastic (S)
// and general (G), on the shapes either side of its ZMM guard, on inputs
// with −0 pairs, subnormals, NaN and ±Inf: first passes on tiles of 16
// (AVX2 only), 32 and 48 (AVX2 on the last block set), of both pair counts
// (pairs=1 where stages 2–3 are of the other kind) and with and without a
// pre scale; tile pairs at strides 1 and 2 (Go), 4 (AVX2 only), 8 and 16;
// lone tile stages at the same strides; cross quads and lone cross stages
// on n = 4, 8, 12 and 44 columns (n ≡ 4 mod 8 takes the YMM tail step); a
// blocked run starting at bit 2 or 3, whose tile pairs start at stride 4 or
// 8; and a run whose kinds alternate, so every stage runs radix-2.
func checkZMMGuards(t *testing.T, tiers []vec.Tier) {
	t.Helper()
	r := rng.New(2039)
	negZero := math.Copysign(0, -1)
	special := func(n int) []float64 {
		v := parityVector(r, n)
		for i := 0; i+1 < n; i += 13 {
			v[i], v[i+1] = negZero, negZero
		}
		for i := 0; i+8 <= n; i += 64 { // −0 pairs at strides 1, 2 and 4
			for k := i; k < i+8; k++ {
				v[k] = negZero
			}
		}
		if n > 16 { // non-finite entries only in the last 16 keep the rest finite
			v[n-11], v[n-7], v[n-3] = math.NaN(), math.Inf(1), math.Inf(-1)
		}
		return v
	}
	for _, kind := range []int{kindStochastic, kindGeneral} {
		name := map[int]string{kindStochastic: "S", kindGeneral: "G"}[kind]
		other := kindStochastic + kindGeneral - kind
		fs := factorsForKind(r, kind, 8)
		mixed := append(factorsForKind(r, kind, 2), factorsForKind(r, other, 2)...)
		pair, quad := (*[2]Factor2)(fs[0:2]), (*[2]Factor2)(fs[2:4])
		for _, n := range []int{16, 32, 48, 96} {
			src, pre := special(n), special(n)
			for pairs, stages := range map[string][]Factor2{"pairs=2": fs[:4], "pairs=1": mixed} {
				for _, sc := range [][]float64{pre, nil} {
					acrossTiers(t, tiers, fmt.Sprintf("%s first pass n=%d %s pre=%v", name, n, pairs, sc != nil), src, func(v []float64) {
						firstTile(v, src, sc, 0, n, 0, stages)
					})
				}
			}
		}
		for _, stride := range []int{1, 2, 4, 8, 16} {
			for _, blocks := range []int{1, 3} {
				v := special(4 * stride * blocks)
				acrossTiers(t, tiers, fmt.Sprintf("%s tile pair stride=%d blocks=%d", name, stride, blocks), v, func(v []float64) {
					tilePair(v, stride, pair, kind)
				})
			}
		}
		for _, stride := range []int{1, 2, 4, 8, 16} {
			v := special(6 * stride)
			acrossTiers(t, tiers, fmt.Sprintf("%s tile stage stride=%d", name, stride), v, func(v []float64) {
				tileStage(v, stride, &fs[5])
			})
		}
		for _, n := range []int{4, 8, 12, 44} {
			v := special(4 * n)
			acrossTiers(t, tiers, fmt.Sprintf("%s cross quad n=%d", name, n), v, func(v []float64) {
				crossQuad(v[:n], v[n:2*n], v[2*n:3*n], v[3*n:], quad, kind)
			})
			acrossTiers(t, tiers, fmt.Sprintf("%s cross stage n=%d", name, n), v, func(v []float64) {
				crossStage([][]float64{v[:n], v[n : 2*n]}, 0, n, 0, &fs[4])
			})
		}
		for _, off0 := range []int{2, 3} {
			v := special(1 << 10)
			acrossTiers(t, tiers, fmt.Sprintf("%s blocked run from bit %d", name, off0), v, func(v []float64) {
				applyStagesBlocked(v, off0, fs[:10-off0], 6, fuseStages)
			})
		}
	}
	// Kinds alternating stage by stage: every pair is mixed, so every stage
	// runs radix-2, in the tile and across it.
	var alternating []Factor2
	for k := 0; k < 5; k++ {
		alternating = append(alternating, factorsForKind(r, kindStochastic, 1)[0], factorsForKind(r, kindGeneral, 1)[0])
	}
	v := special(1 << 10)
	acrossTiers(t, tiers, "alternating kinds blocked run", v, func(v []float64) {
		applyStagesBlocked(v, 0, alternating, 6, fuseStages)
	})
}

// checkApplyFusedAVX2MatchesGo runs ApplyFused at every kernel tier and
// compares each with the Go tier, so a bug shared by ApplyFused and Apply
// under one gate still shows. It covers a pre scale and none, in place and
// out of place, serial and 2 device workers, tiles from below the AVX2
// first pass's 16-element block through the AVX-512 first pass's 32 to the
// default, stochastic and mixed-kind runs (a general second stage pair
// leaves the kernel its radix-4-only form), and inputs with −0,
// subnormals, NaN and ±Inf and src·pre products that round. Go does not
// pin NaN payloads, so any two NaNs compare equal; every other value must
// match bit for bit.
func checkApplyFusedAVX2MatchesGo(t *testing.T, tiers []vec.Tier) {
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
				for _, tb := range []int{3, 4, 5, tileBits} {
					for dname, dev := range devs {
						for _, d := range [][]float64{pre, nil} {
							for _, inPlace := range []bool{false, true} {
								name := fmt.Sprintf("ApplyFused %s ν=%d tb=%d %s special=%v pre=%v in-place=%v",
									p.name, nu, tb, dname, withSpecial, d != nil, inPlace)
								acrossTiers(t, tiers, name, src, func(dst []float64) {
									in := src
									if inPlace {
										in = dst
									}
									p.q.applyFused(dev, dst, in, d, tb, Epilogue{})
								})
							}
						}
					}
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
