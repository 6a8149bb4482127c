package mutation

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// Property tests for the kernel floor (blocked.go, fwht.go): the unrolled,
// bounds-check-eliminated, radix-4-fused stage engines against the literal
// naive references, across both butterfly kinds, all small ν, and odd tile
// sizes that force ragged main-loop/tail splits everywhere.
//
// Contract under test (see DESIGN.md §5.6):
//   - general factors: the blocked engine is BIT-IDENTICAL to the naive
//     stage loop (same literal a·t1 + b·t2 per element, any traversal);
//   - stochastic factors: the strength-reduced form matches the naive
//     literal butterfly within naiveTol (≈ ULPs per stage);
//   - radix-4 fusion is BIT-IDENTICAL to the two radix-2 reduced stages it
//     replaces, at every stride and tail shape;
//   - FWHT, the general kind on the ±1 Hadamard factors, is BIT-IDENTICAL
//     to FWHTNaive.

// naiveStageLoop is the literal Algorithm-1 stage loop for an arbitrary
// factor list: stage s applies fs[s] at stride 2^(off0+s) with the
// four-multiply butterfly, exactly like applyGroupSerial's single-bit path.
func naiveStageLoop(v []float64, off0 int, fs []Factor2) {
	for s := range fs {
		f := &fs[s]
		stride := 1 << uint(off0+s)
		for j := 0; j < len(v); j += 2 * stride {
			for k := j; k < j+stride; k++ {
				t1, t2 := v[k], v[k+stride]
				v[k] = f.A*t1 + f.B*t2
				v[k+stride] = f.C*t1 + f.D*t2
			}
		}
	}
}

// reducedStageLoop is the naive traversal with the strength-reduced
// butterfly bodies (single multiply, as in the blocked kernels), the
// reference the fused radix-4 paths must reproduce bit-exactly.
func reducedStageLoop(v []float64, off0 int, fs []Factor2) {
	for s := range fs {
		f := &fs[s]
		stride := 1 << uint(off0+s)
		for j := 0; j < len(v); j += 2 * stride {
			for k := j; k < j+stride; k++ {
				t1, t2 := v[k], v[k+stride]
				switch butterflyKind(f) {
				case kindStochastic:
					d := f.B * (t2 - t1)
					v[k] = t1 + d
					v[k+stride] = t2 - d
				default:
					v[k] = f.A*t1 + f.B*t2
					v[k+stride] = f.C*t1 + f.D*t2
				}
			}
		}
	}
}

// factorsForKind builds nu single-bit factors of the requested butterfly
// kind with randomized entries. The stochastic kind uses dyadic rates
// p = k/1024 so the defining identity a+b = 1 holds EXACTLY in float64 —
// butterflyKind demands it exactly, arbitrary rates would silently fall
// back to the general path.
func factorsForKind(r *rng.Source, kind, nu int) []Factor2 {
	fs := make([]Factor2, nu)
	for i := range fs {
		p := dyadicRate(r)
		switch kind {
		case kindStochastic:
			fs[i] = Factor2{A: 1 - p, B: p, C: p, D: 1 - p}
		default:
			// Random entries; the stochastic identity holds with
			// probability ~0, and butterflyKind demands it exactly.
			fs[i] = Factor2{A: 2*r.Float64() - 1, B: 2*r.Float64() - 1,
				C: 2*r.Float64() - 1, D: 2*r.Float64() - 1}
		}
		if butterflyKind(&fs[i]) != kind {
			panic("factorsForKind: generated factor has wrong kind")
		}
	}
	return fs
}

// oddTileBits forces ragged tile/cross splits: tiles of 2, 8, 32, … never
// line up with the 4-wide unrolls or the radix-4 pairing evenly.
var oddTileBits = []int{1, 3, 5, 7, 9, 13}

// dyadicRate returns a random rate k/1024 ∈ (0, 0.5): dyadic, so the
// stochastic identity a+b = 1 holds exactly in float64.
func dyadicRate(r *rng.Source) float64 {
	return float64(1+r.Uint64n(511)) / 1024
}

func TestStageEngineMatchesNaiveAllKindsOddTiles(t *testing.T) {
	r := rng.New(2026)
	for nu := 1; nu <= 14; nu++ {
		for _, kind := range []int{kindGeneral, kindStochastic} {
			fs := factorsForKind(r, kind, nu)
			v := randVector(r, 1<<uint(nu))
			for _, tb := range oddTileBits {
				for _, fuse := range []int{1, 2, 3, 4} {
					got := vec.Clone(v)
					applyStagesBlocked(got, 0, fs, tb, fuse)
					want := vec.Clone(v)
					naiveStageLoop(want, 0, fs)
					d := vec.DistInf(got, want)
					if kind == kindGeneral {
						if d != 0 {
							t.Fatalf("ν=%d kind=general tb=%d fuse=%d: blocked differs from naive by %g, want bit-identity", nu, tb, fuse, d)
						}
					} else if tol := naiveTol(nu, v); d > tol {
						t.Fatalf("ν=%d kind=%d tb=%d fuse=%d: blocked deviates from naive by %g (tol %g)", nu, kind, tb, fuse, d, tol)
					}
				}
			}
		}
	}
}

func TestStageEngineBitIdenticalToReducedLoop(t *testing.T) {
	// The fused radix-4 paths must reproduce the reduced radix-2 sequence
	// EXACTLY — this is the invariant that lets blocked.go fuse stage pairs
	// without changing any result bits.
	r := rng.New(404)
	for nu := 1; nu <= 14; nu++ {
		fs := factorsForKind(r, kindStochastic, nu)
		v := randVector(r, 1<<uint(nu))
		for _, tb := range oddTileBits {
			got := vec.Clone(v)
			applyStagesBlocked(got, 0, fs, tb, fuseStages)
			want := vec.Clone(v)
			reducedStageLoop(want, 0, fs)
			if d := vec.DistInf(got, want); d != 0 {
				t.Fatalf("ν=%d tb=%d: fused engine differs from reduced radix-2 loop by %g, want bit-identity", nu, tb, d)
			}
		}
	}
}

func TestRadix4PairBitIdenticalToTwoStages(t *testing.T) {
	// Direct unit test of the pair kernels of both kinds at every stride
	// and a ragged tile length: fused two-stage tile pass vs two sequential
	// tileStage calls.
	r := rng.New(31)
	for _, kind := range []int{kindStochastic, kindGeneral} {
		for _, tileLen := range []int{4, 8, 12, 64, 96, 1 << 10} {
			for stride := 1; 4*stride <= tileLen; stride *= 2 {
				if tileLen%(4*stride) != 0 {
					continue
				}
				g := (*[2]Factor2)(factorsForKind(r, kind, 2))
				v := randVector(r, tileLen)

				got := vec.Clone(v)
				tilePair(got, stride, g, kind)
				want := vec.Clone(v)
				tileStage(want, stride, &g[0])
				tileStage(want, 2*stride, &g[1])
				if vec.DistInf(got, want) != 0 {
					t.Fatalf("kind=%d tileLen=%d stride=%d: tilePair not bit-identical to two tileStage calls", kind, tileLen, stride)
				}
			}
		}
	}
}

func TestCrossQuadBitIdenticalToTwoCrossStages(t *testing.T) {
	r := rng.New(77)
	for _, kind := range []int{kindStochastic, kindGeneral} {
		for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 129} {
			g := (*[2]Factor2)(factorsForKind(r, kind, 2))
			rows := func() [][]float64 {
				m := make([][]float64, 4)
				for i := range m {
					m[i] = randVector(rng.New(uint64(1000+i)), cols)
				}
				return m
			}

			got, want := rows(), rows()
			crossQuad(got[0], got[1], got[2], got[3], g, kind)
			crossStage(want, 0, cols, 0, &g[0])
			crossStage(want, 0, cols, 1, &g[1])
			for i := range got {
				if vec.DistInf(got[i], want[i]) != 0 {
					t.Fatalf("kind=%d cols=%d row %d: crossQuad not bit-identical to two crossStage calls", kind, cols, i)
				}
			}
		}
	}
}

// TestFWHTBitIdenticalAllNuOddTiles: FWHT, one run of the production stage
// engine on the Hadamard table, gives FWHTNaive's bits at ν = 0…22 on every
// kernel tier, for a random input, one spread over 600 decades (so sums
// round at every scale) and one with −0 and subnormal entries. Up to ν = 14 the
// stage driver also runs at the odd tile sizes, whose ragged splits put
// the stages on every tile, cross, radix-2 and tail shape. A -race build
// stops at ν = 16.
func TestFWHTBitIdenticalAllNuOddTiles(t *testing.T) {
	tiers := kernelTiers(t)
	r := rng.New(808)
	maxNu := 22
	if raceDetector {
		maxNu = 16
	}
	for nu := 0; nu <= maxNu; nu++ {
		n := 1 << uint(nu)
		for _, in := range []struct {
			name string
			v    []float64
		}{{"random", randVector(r, n)}, {"600 decades", spreadVector(r, n)}, {"−0 and subnormals", parityVector(r, n)}} {
			want := vec.Clone(in.v)
			FWHTNaive(want)
			check := func(what string, tier vec.Tier, got []float64) {
				t.Helper()
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("ν=%d %s %s tier=%v: entry %d = %v, FWHTNaive %v", nu, in.name, what, tier, i, got[i], want[i])
				}
			}
			for _, tier := range tiers {
				vec.SetTier(tier)
				got := vec.Clone(in.v)
				FWHT(got)
				check("FWHT", tier, got)
				if nu > 14 {
					continue
				}
				for _, tb := range oddTileBits {
					got := vec.Clone(in.v)
					applyStagesBlocked(got, 0, hadamard[:nu], tb, fuseStages)
					check(fmt.Sprintf("tb=%d", tb), tier, got)
				}
			}
		}
	}
}

// spreadVector returns n entries of random sign and magnitude in
// [2^−996, 2^997), about 10^±300, with uniformly drawn binary exponents.
func spreadVector(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Ldexp(1+r.Float64(), int(r.Uint64n(1993))-996)
		if r.Uint64n(2) == 0 {
			v[i] = -v[i]
		}
	}
	return v
}

// FuzzStageEngine fuzzes the blocked stage engine against the naive loop
// over (seed, ν, tile bits, fuse depth, butterfly kind), and requires every
// kernel tier the host has to give the Go tier's bits.
func FuzzStageEngine(f *testing.F) {
	tiers := kernelTiers(f)
	f.Add(uint64(1), byte(3), byte(1), byte(2), byte(0))
	f.Add(uint64(2), byte(10), byte(5), byte(4), byte(1))
	f.Add(uint64(3), byte(14), byte(13), byte(3), byte(2))
	f.Add(uint64(4), byte(1), byte(1), byte(1), byte(1))
	f.Add(uint64(5), byte(12), byte(3), byte(3), byte(1)) // 16-element tiles: the AVX2 first pass at every tier
	f.Fuzz(func(t *testing.T, seed uint64, nuB, tbB, fuseB, kindB byte) {
		nu := 1 + int(nuB)%14
		tb := 1 + int(tbB)%16
		fuse := 1 + int(fuseB)%maxFuseStages
		kind := int(kindB) % 2
		r := rng.New(seed)
		fs := factorsForKind(r, kind, nu)
		v := randVector(r, 1<<uint(nu))
		acrossTiers(t, tiers, fmt.Sprintf("ν=%d tb=%d fuse=%d kind=%d", nu, tb, fuse, kind), v, func(x []float64) {
			applyStagesBlocked(x, 0, fs, tb, fuse)
		})
		got := vec.Clone(v)
		applyStagesBlocked(got, 0, fs, tb, fuse)
		want := vec.Clone(v)
		naiveStageLoop(want, 0, fs)
		d := vec.DistInf(got, want)
		if kind == kindGeneral {
			if d != 0 {
				t.Fatalf("ν=%d tb=%d fuse=%d: general blocked differs from naive by %g", nu, tb, fuse, d)
			}
		} else if tol := naiveTol(nu, v); d > tol {
			t.Fatalf("ν=%d tb=%d fuse=%d kind=%d: deviation %g exceeds tol %g", nu, tb, fuse, kind, d, tol)
		}
	})
}
