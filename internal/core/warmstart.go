package core

import (
	"math"

	"repro/internal/device"
	"repro/internal/vec"
)

// ExtrapolateStart turns prev, a warm chain's converged vector at the
// error rate nodes[len(nodes)−1], into the start of the chain's point at p,
// in place: the Lagrange extrapolation, evaluated at p, through the chain's
// last k ≤ 4 converged vectors, with k picked by how well each order
// predicted prev. nodes are the error rates the chain has solved so far,
// oldest first; the up to three vectors before prev are the history this
// method keeps in aw. k = 1 leaves prev as it is (the plain warm start),
// k = 2 is the secant, k = 3 the quadratic and k = 4 the cubic fit. Below
// the error threshold the Perron vector moves smoothly in p, so the start's
// error falls from O(Δp) to O(Δp^k) for a grid step Δp.
//
// The order rule. With h = min(len(nodes)−1, 3) history vectors, E_j is the
// fit through the j vectors before prev, evaluated at prev's node, and
// e_j = ‖prev − E_j‖² its error, j = 1 … h. j* is the j of the smallest
// error, ties going to the lower j. The start uses j*+1 vectors when
// j* = h, so the order climbs along a chain — plain, secant, quadratic,
// cubic — while every order predicts better than the one below it; and j*
// vectors otherwise, which drops the order where a higher fit mispredicts
// (a kink in p, or a coarse grid over which the vector is far from
// polynomial). With no history, at the chain's second point, the start is
// the plain warm start. h = 1 leaves one order to rank, so the third point
// takes the secant without a ranking pass.
//
// The history is chain-local: the caller passes the nodes of the current
// chain only and calls ExtrapolateStart once per warm point, in chain
// order, with prev the vector the previous point converged to. Its results
// then depend on the chain alone, never on which worker runs it. Where two
// nodes coincide or a Lagrange weight is not finite, the fit of that order
// is left out of the ranking, and a start whose weights are such stays the
// plain warm start.
//
// The two passes are vec kernels with an AVX2 body and a bit-identical Go
// body, and neither fuses a product into an FMA, so the ranking and the
// start are the same on every amd64 level and under QS_NOAVX2. The
// read-only ranking pass is vec.FitErrors, whose three sums run in the
// 4-lane order of every reduction in the module. Then one pass over prev,
// vec.Extrapolate, writes the start and the history:
//
//	a = prev[i]; prev[i] = ℓ₀·a + ℓ₁·h₁[i] + ℓ₂·h₂[i] + ℓ₃·h₃[i]; h₃[i] = a
//
// summed left to right, followed by rotating (h₁, h₂, h₃) to (h₃, h₁, h₂).
// The three history vectors are allocated on first use and reused, so a
// warm sweep allocates nothing per point.
func (aw *AdaptiveWork) ExtrapolateStart(prev, nodes []float64, p float64) {
	if len(nodes) == 0 {
		return
	}
	n := len(prev)
	for j := range aw.hist {
		if len(aw.hist[j]) != n {
			aw.hist[j] = device.AllocVector(n)
		}
	}
	h1, h2, h3 := aw.hist[0][:n], aw.hist[1][:n], aw.hist[2][:n]
	k := 1
	if h := min(len(nodes)-1, 3); h > 0 {
		k = fitOrder(prev, h1, h2, h3, nodes, h)
		if k == h {
			k++
		}
	}
	if l, k := lagrangeWeights(p, nodes[len(nodes)-k:]); k > 1 {
		vec.Extrapolate(prev, h1, h2, h3, l, k)
	} else {
		copy(h3, prev)
	}
	aw.hist[0], aw.hist[1], aw.hist[2] = h3, h1, h2
}

// fitOrder returns j*, the number of history vectors whose fit best
// predicts x (ExtrapolateStart's order rule): the fit through the newest j
// of the h history vectors h₁, h₂, h₃ (newest first), evaluated at x's node
// nodes[len(nodes)−1], for j = 1 … h. Fits whose weights are not finite
// are skipped; the plain fit j = 1 never is. For h ≥ 2 it is one
// read-only pass over x and the history, vec.FitErrors.
func fitOrder(x, h1, h2, h3, nodes []float64, h int) int {
	if h < 2 {
		return 1
	}
	m := len(nodes) - 1
	w2, k2 := lagrangeWeights(nodes[m], nodes[m-2:m])
	// With h = 2 there are two nodes to fit through, so k3 = 2 and the
	// cubic-history term, computed from whatever h₃ holds, is dropped.
	w3, k3 := lagrangeWeights(nodes[m], nodes[max(0, m-3):m])
	e1, e2, e3 := vec.FitErrors(x, h1, h2, h3, [2]float64(w2[:2]), [3]float64(w3[:3]))
	e := [3]float64{e1, e2, e3}
	// A NaN error never ranks first.
	if k2 != 2 {
		e[1] = math.NaN()
	}
	if k3 != 3 {
		e[2] = math.NaN()
	}
	best := 1
	for j := 2; j <= h; j++ {
		if e[j-1] < e[best-1] {
			best = j
		}
	}
	return best
}

// lagrangeWeights returns the Lagrange weights at p of the nodes (oldest
// first, at most four), indexed newest first: ℓⱼ belongs to the node
// x_j = nodes[len(nodes)−1−j] and is Π_{m≠j} (p − x_m)/(x_j − x_m), the
// factors taken in ascending m. k is the number of weights to apply: 1 —
// the plain warm start, ℓ₀ = 1 — for a single node and for a weight that
// is not finite, which includes every weight of a node that coincides
// with another (its denominator is zero).
func lagrangeWeights(p float64, nodes []float64) (l [4]float64, k int) {
	plain := [4]float64{1}
	k = len(nodes)
	if k < 2 || k > len(l) {
		return plain, 1
	}
	var x [4]float64
	for j := range k {
		x[j] = nodes[k-1-j]
	}
	for j := range k {
		w := 1.0 // 1·f = f exactly, so the first factor enters unchanged
		for m := range k {
			if m != j {
				w *= (p - x[m]) / (x[j] - x[m])
			}
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return plain, 1
		}
		l[j] = w
	}
	return l, k
}
