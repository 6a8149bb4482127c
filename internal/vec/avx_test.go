package vec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// kernelTiers returns the kernel tiers this host can run, fastest first,
// and restores the active tier when the test ends. These kernels have no
// AVX-512 body, so TierAVX512 runs their AVX2 bodies; it is in the list
// because the tier switch must leave them untouched.
func kernelTiers(t testing.TB) []Tier {
	was := SetTier(TierAVX512)
	t.Cleanup(func() { SetTier(was) })
	return Tiers()
}

// acrossTiers runs kernel at every tier of tiers (which ends with TierGo)
// and returns the first tier whose output differs from the Go tier's bit
// for bit, with the index and both values; TierGo when all agree.
func acrossTiers(tiers []Tier, kernel func() []float64) (Tier, int, float64, float64) {
	SetTier(TierGo)
	gold := kernel()
	for _, tier := range tiers[:len(tiers)-1] {
		SetTier(tier)
		got := kernel()
		for i := range gold {
			if math.Float64bits(got[i]) != math.Float64bits(gold[i]) {
				return tier, i, got[i], gold[i]
			}
		}
	}
	return TierGo, 0, 0, 0
}

// kernelCases runs every kernel with an AVX2 body on fresh copies of the
// operands and returns, per kernel, everything it produced: returned sums
// and every element it wrote.
func kernelCases(x, y, z []float64) map[string]func() []float64 {
	cases := map[string]func() []float64{
		"DotLanes": func() []float64 { return []float64{DotLanes(x, y)} },
		"SumSq":    func() []float64 { return []float64{SumSq(y)} },
		"LanczosTail": func() []float64 {
			dst := make([]float64, len(y))
			return append(dst, LanczosTail(dst, y, x, z, 1.3, 0.37, -1.9))
		},
		"LanczosTail/dst aliases w": func() []float64 {
			w := Clone(y)
			return append(w, LanczosTail(w, w, x, z, 0.7, 0.37, -1.9))
		},
		"LanczosTail/nil u": func() []float64 {
			w := Clone(y)
			return append(w, LanczosTail(w, w, x, nil, 1, 0.37, -1.9))
		},
		"Combine": func() []float64 {
			dst := Clone(y)
			return append(dst, Combine(dst, [][]float64{x, z}, []float64{0.3, -0.7}))
		},
		"DotEach": func() []float64 {
			c := make([]float64, 2)
			DotEach(c, [][]float64{x, z}, y)
			return c
		},
		"AXPY": func() []float64 {
			dst := Clone(y)
			AXPY(0.7, x, dst)
			return dst
		},
		"Mul": func() []float64 {
			dst := make([]float64, len(x))
			Mul(dst, x, y)
			return dst
		},
		"Mul/in place": func() []float64 {
			dst := Clone(x)
			Mul(dst, dst, y)
			return dst
		},
		"Norm1Lanes": func() []float64 { return norm1Chunked(x) },
	}
	for name, f := range pointKernelCases(x, y, z) {
		cases[name] = f
	}
	for _, mu := range []float64{0, 0.41} {
		cases[fmt.Sprintf("ShiftedDotSumSq/µ=%g", mu)] = func() []float64 {
			dot, ssq := ShiftedDotSumSq(x, y, mu)
			return []float64{dot, ssq}
		}
		cases[fmt.Sprintf("ShiftedResidualSumSq/µ=%g", mu)] = func() []float64 {
			w := Clone(y)
			return append(w, ShiftedResidualSumSq(x, w, mu, 0.37, 1.3))
		}
	}
	return cases
}

// norm1Chunked runs Norm1Lanes over the 4-aligned prefix of x in chunks of
// 4, 8, 12, … entries, then FoldNorm1 over its tail, and returns the four
// lanes and the folded sum, which must be Norm1(x).
func norm1Chunked(x []float64) []float64 {
	var lanes [4]float64
	body := x[:len(x)&^3]
	for m := 4; len(body) > 0; m += 4 {
		m = min(m, len(body))
		Norm1Lanes(&lanes, body[:m])
		body = body[m:]
	}
	return append(lanes[:], FoldNorm1(&lanes, x[len(x)&^3:]))
}

// pointKernelCases runs the kernels of a sweep point's passes around its
// solve on fresh copies of the operands, as kernelCases does: Scale, Norm1,
// NormInf, the concentration scan and clamp, the fit errors and the
// extrapolation write at each order. x is the vector they act on, y and z
// stand in for the history.
func pointKernelCases(x, y, z []float64) map[string]func() []float64 {
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 0.5*y[i] - 0.25*z[i]
	}
	cases := map[string]func() []float64{
		"Scale": func() []float64 {
			dst := Clone(x)
			Scale(dst, -0.37)
			return dst
		},
		"Norm1":   func() []float64 { return []float64{Norm1(x)} },
		"NormInf": func() []float64 { return []float64{NormInf(x)} },
		"ConcentrationScan": func() []float64 {
			m, l, s := ConcentrationScan(x)
			return []float64{m, l, s}
		},
		"ClampScale": func() []float64 {
			dst := Clone(x)
			ClampScale(dst, 1.7)
			return dst
		},
		"FitErrors": func() []float64 {
			e1, e2, e3 := FitErrors(x, y, z, w, [2]float64{2, -1}, [3]float64{3, -3, 1})
			return []float64{e1, e2, e3}
		},
	}
	for k := 2; k <= 4; k++ {
		cases[fmt.Sprintf("Extrapolate/k=%d", k)] = func() []float64 {
			dst, h3 := Clone(x), Clone(w)
			Extrapolate(dst, y, z, h3, [4]float64{4, -6, 4, -1}, k)
			return append(dst, h3...)
		}
	}
	return cases
}

// TestPointKernelsSpecialValues compares the point kernels at every tier
// with their Go bodies on operands salted with ±0, subnormals and values near the
// extremes, at every length from 0 to 67, so each special value meets each
// lane and the tail. NaN enters only where a kernel defines its result:
// NormInf and ConcentrationScan's max|x| and min x skip it, and the
// scan's clamped sum carries it.
func TestPointKernelsSpecialValues(t *testing.T) {
	tiers := kernelTiers(t)
	if len(tiers) == 1 {
		t.Skip("host has no AVX2; single code path")
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1060, -0x1p-1030, 1e300, -1e300}
	r := rng.New(61)
	for n := 0; n <= 67; n++ {
		for _, withNaN := range []bool{false, true} {
			x, y, z := randVec(r, n), randVec(r, n), randVec(r, n)
			for i := 0; i < n; i += 3 {
				x[i] = special[(i+n)%len(special)]
				y[(i+1)%n] = special[(i+n+3)%len(special)]
			}
			cases := pointKernelCases(x, y, z)
			if withNaN {
				if n == 0 {
					continue
				}
				x[(5*n)/7] = math.NaN()
				cases = map[string]func() []float64{
					"NormInf":           cases["NormInf"],
					"ConcentrationScan": cases["ConcentrationScan"],
				}
			}
			for name, kernel := range cases {
				if tier, i, got, gold := acrossTiers(tiers, kernel); tier != TierGo {
					t.Fatalf("%s n=%d NaN=%v: output %d is %v at %v, %v in Go", name, n, withNaN, i, got, tier, gold)
				}
			}
		}
	}
}

// TestAVX2KernelsBitIdenticalToGo switches the kernel tier and requires
// every tier to reproduce the Go bodies bit for bit: every length from 0
// to 67, so each body length meets each tail length, plus 2¹² and 2¹⁷; the
// power passes at µ = 0 and µ ≠ 0; LanczosTail with c ≠ 1, into a separate
// dst and with dst aliasing w, as the Lanczos step and the probe's last
// tail call it; and Mul with dst aliasing its first operand, the epilogue's
// in-place post-scale. A −0 entry checks that µ = 0 reads w itself.
// Skipped on hosts without AVX2, where only the Go bodies exist.
func TestAVX2KernelsBitIdenticalToGo(t *testing.T) {
	tiers := kernelTiers(t)
	if len(tiers) == 1 {
		t.Skip("host has no AVX2; single code path")
	}
	r := rng.New(53)
	var lengths []int
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1<<12, 1<<17)
	for _, n := range lengths {
		x, y, z := randVec(r, n), randVec(r, n), randVec(r, n)
		if n > 0 {
			y[n/3] = math.Copysign(0, -1)
		}
		for name, kernel := range kernelCases(x, y, z) {
			if tier, i, got, gold := acrossTiers(tiers, kernel); tier != TierGo {
				t.Fatalf("%s n=%d: output %d is %v at %v, %v in Go", name, n, i, got, tier, gold)
			}
		}
	}
}

// TestKernelsDoNotAllocate: the assembly keeps its operands off the heap
// (go:noescape), so the kernels — and Dot, Norm2, the power passes,
// LanczosTail, Combine and DotEach built on them, the point kernels and
// Norm1's lane accumulator — allocate nothing, at any tier.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(59)
	const n = 1<<12 + 3
	x, w, z := randVec(r, n), randVec(r, n), randVec(r, n)
	basis, c := [][]float64{x, z}, []float64{1e-3, -1e-3}
	var lanes [4]float64
	for _, tier := range kernelTiers(t) {
		SetTier(tier)
		for name, f := range map[string]func(){
			"Dot":                  func() { Dot(x, w) },
			"Norm2":                func() { Norm2(x) },
			"ShiftedDotNorm2":      func() { ShiftedDotNorm2(x, w, 0.41) },
			"ShiftedResidualScale": func() { ShiftedResidualScale(x, w, 0.41, 0.3, 1) },
			"LanczosTail":          func() { LanczosTail(w, w, x, z, 1, 1e-3, 1e-3) },
			"Combine":              func() { Combine(w, basis, c) },
			"DotEach":              func() { DotEach(c, basis, w) },
			"Mul":                  func() { Mul(z, x, w) },
			"Scale":                func() { Scale(z, 1) },
			"Norm1":                func() { Norm1(x) },
			"Norm1Lanes":           func() { Norm1Lanes(&lanes, x) },
			"NormInf":              func() { NormInf(x) },
			"ConcentrationScan":    func() { ConcentrationScan(x) },
			"ClampScale":           func() { ClampScale(z, 1) },
			"FitErrors":            func() { FitErrors(x, w, z, z, [2]float64{2, -1}, [3]float64{3, -3, 1}) },
			"Extrapolate":          func() { Extrapolate(z, x, w, z, [4]float64{1, 0, 0, 0}, 4) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("tier=%v: %s allocates %v objects per call", tier, name, allocs)
			}
		}
	}
}
