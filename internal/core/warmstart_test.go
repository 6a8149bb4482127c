package core

import (
	"fmt"
	"math"
	"testing"
)

// polyVec returns u + p·v + p²·w for fixed u, v, w of length n; quad = false
// drops the p² term.
func polyVec(n int, p float64, quad bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		u, v, w := 1+0.1*float64(i%7), 0.3-0.05*float64(i%5), 0.0
		if quad {
			w = 2 - 0.4*float64(i%3)
		}
		out[i] = u + p*v + p*p*w
	}
	return out
}

// requireNear fails unless got matches want to within tol relative to the
// largest entry of want.
func requireNear(t *testing.T, tag string, got, want []float64, tol float64) {
	t.Helper()
	var scale float64
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*scale {
			t.Fatalf("%s: entry %d = %.17g, want %.17g (|Δ| = %g)", tag, i, got[i], want[i], d)
		}
	}
}

// Along a chain, ExtrapolateStart leaves the second point's start as the
// first point's vector bit for bit, reproduces a vector affine in p from two
// nodes and one quadratic in p from three, and keeps doing so as the
// history rotates. The nodes are uneven so that the weights are not the
// uniform-grid (2, −1) and (3, −3, 1).
func TestExtrapolateStartReproducesPolynomials(t *testing.T) {
	const n = 37
	ps := []float64{0.01, 0.013, 0.0175, 0.02, 0.026, 0.03}
	for _, quad := range []bool{false, true} {
		aw := NewAdaptiveWork(n)
		prev := polyVec(n, ps[0], quad)
		want := append([]float64(nil), prev...)
		aw.ExtrapolateStart(prev, ps[:1], ps[1])
		for i := range prev {
			if prev[i] != want[i] {
				t.Fatalf("quad=%v: one node moved entry %d: %v, want %v", quad, i, prev[i], want[i])
			}
		}
		for i := 2; i < len(ps); i++ {
			copy(prev, polyVec(n, ps[i-1], quad)) // the converged vector at ps[i−1]
			aw.ExtrapolateStart(prev, ps[:i], ps[i])
			if quad && i == 2 {
				continue // two nodes reproduce affine vectors only
			}
			requireNear(t, "extrapolated start", prev, polyVec(n, ps[i], quad), 1e-13)
		}
	}
}

// cubicVec returns u + p·v + p²·w + p³·z for fixed u, v, w, z of length n.
func cubicVec(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		u, v := 1+0.1*float64(i%7), 0.3-0.05*float64(i%5)
		w, z := 2-0.4*float64(i%3), 40-9*float64(i%4)
		out[i] = u + p*(v+p*(w+p*z))
	}
	return out
}

// On a vector family cubic in p, every order predicts better than the one
// below it, so the order climbs one node per point — plain, secant,
// quadratic, cubic — and from the fifth chain point on the start is the
// cubic fit, which reproduces the family. A quadratic start there would
// miss by about z·Δp³ ≈ 1e-6, far outside the tolerance.
func TestExtrapolateStartReachesCubic(t *testing.T) {
	const n = 23
	ps := []float64{0.01, 0.013, 0.0175, 0.02, 0.026, 0.03, 0.031, 0.0355}
	aw := NewAdaptiveWork(n)
	prev := cubicVec(n, ps[0])
	for i := 1; i < len(ps); i++ {
		copy(prev, cubicVec(n, ps[i-1])) // the converged vector at ps[i−1]
		aw.ExtrapolateStart(prev, ps[:i], ps[i])
		if i >= 4 {
			requireNear(t, fmt.Sprintf("point %d", i), prev, cubicVec(n, ps[i]), 1e-13)
		}
	}
}

// kinkVec returns u + p·v + w·max(0, p − pk): affine on each side of pk, with
// a kink of slope w at pk.
func kinkVec(n int, p, pk float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		u, v, w := 1+0.1*float64(i%7), 0.3-0.05*float64(i%5), 5+float64(i%3)
		out[i] = u + p*v + w*max(0, p-pk)
	}
	return out
}

// Across a kink in p the higher orders mispredict, and the rule drops them.
// Once the chain's two newest vectors lie past the kink, the secant through
// them is exact, while the quadratic and the cubic reach back across the
// kink: the rule ranks the secant first (j* = 2 of h = 3) and starts from
// it, so the start reproduces the family, where a fixed cubic through the
// last four vectors would miss by about w·Δp ≈ 0.01.
func TestExtrapolateStartDropsOrderAtKink(t *testing.T) {
	const n, pk = 19, 0.0205
	ps := []float64{0.01, 0.014, 0.018, 0.022, 0.026, 0.03, 0.034, 0.038}
	vec := func(p float64) []float64 { return kinkVec(n, p, pk) }
	aw := NewAdaptiveWork(n)
	prev := vec(ps[0])
	for i := 1; i < len(ps); i++ {
		if i == 6 {
			// The ranking at this point: prev at ps[5], history at ps[4],
			// ps[3] and ps[2], the last one before the kink.
			if j := fitOrder(vec(ps[5]), vec(ps[4]), vec(ps[3]), vec(ps[2]), ps[:6], 3); j > 2 {
				t.Fatalf("point 6: the rule picks %d history vectors, want at most 2", j)
			}
		}
		copy(prev, vec(ps[i-1]))
		aw.ExtrapolateStart(prev, ps[:i], ps[i])
		if i >= 6 {
			requireNear(t, fmt.Sprintf("point %d", i), prev, vec(ps[i]), 1e-13)
		}
	}
}

// Coinciding nodes and non-finite weights leave the plain warm start, bit
// for bit; the history still rotates, so a later point with distinct nodes
// extrapolates again. A warm chain allocates nothing after its first point.
func TestExtrapolateStartFallsBack(t *testing.T) {
	const n = 9
	aw := NewAdaptiveWork(n)
	plain := func(tag string, nodes []float64, p float64) {
		t.Helper()
		prev := polyVec(n, nodes[len(nodes)-1], false)
		want := append([]float64(nil), prev...)
		aw.ExtrapolateStart(prev, nodes, p)
		for i := range prev {
			if math.Float64bits(prev[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: entry %d = %v, want the plain warm start %v", tag, i, prev[i], want[i])
			}
		}
	}
	plain("one node", []float64{0.01}, 0.02)
	plain("repeated node", []float64{0.01, 0.01}, 0.02)
	plain("repeated older nodes", []float64{0.01, 0.01, 0.02}, 0.03)
	plain("weight overflows", []float64{0, 5e-324}, 1)
	plain("NaN p", []float64{0.005, 0.0075, 0.01}, math.NaN())
	plain("infinite p", []float64{0.01, 0.02}, math.Inf(1))

	// The history now holds the vectors at 0.02 and 0.01, the last two
	// calls' prev, so three distinct nodes extrapolate exactly again.
	prev := polyVec(n, 0.03, false)
	aw.ExtrapolateStart(prev, []float64{0.01, 0.02, 0.03}, 0.04)
	requireNear(t, "after fallback", prev, polyVec(n, 0.04, false), 1e-13)

	nodes := []float64{0.01, 0.02, 0.03}
	if allocs := testing.AllocsPerRun(10, func() { aw.ExtrapolateStart(prev, nodes, 0.04) }); allocs != 0 {
		t.Errorf("ExtrapolateStart allocates %.0f objects per warm point", allocs)
	}
}

// A warm ExtrapolateStart allocates nothing at any order. Along the cubic
// family the order climbs one node per point, so the chain's first four
// warm points take the plain, secant, quadratic and cubic starts; each is
// measured from the chain's state before it, restored on every run. The
// length leaves a tail after the AVX2 prefix.
func TestExtrapolateStartAllocatesNothing(t *testing.T) {
	const n = 23
	ps := []float64{0.01, 0.013, 0.0175, 0.02, 0.026}
	vecs := make([][]float64, len(ps))
	for i, p := range ps {
		vecs[i] = cubicVec(n, p)
	}
	aw := NewAdaptiveWork(n)
	prev := append([]float64(nil), vecs[0]...)
	aw.ExtrapolateStart(prev, ps[:1], ps[1]) // allocates the history
	var saved [3][]float64
	for i := 1; i < len(ps); i++ {
		hist := aw.hist
		for j := range hist {
			saved[j] = append(saved[j][:0], hist[j]...)
		}
		k := 1
		if h := min(i-1, 3); h > 0 {
			if k = fitOrder(vecs[i-1], hist[0], hist[1], hist[2], ps[:i], h); k == h {
				k++
			}
		}
		if k != i {
			t.Fatalf("point %d takes a start of order %d, want %d", i, k, i)
		}
		run := func() {
			aw.hist = hist
			for j := range hist {
				copy(hist[j], saved[j])
			}
			copy(prev, vecs[i-1])
			aw.ExtrapolateStart(prev, ps[:i], ps[i])
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("order %d: ExtrapolateStart allocates %.0f objects per warm point", k, allocs)
		}
	}
}
