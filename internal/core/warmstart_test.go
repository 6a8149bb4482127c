package core

import (
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
