package core

import (
	"math"

	"repro/internal/device"
)

// ExtrapolateStart turns prev, a warm chain's converged vector at the
// error rate nodes[len(nodes)−1], into the start of the chain's point at p,
// in place: the Lagrange extrapolation, evaluated at p, through the chain's
// last k = min(len(nodes), 3) converged vectors. nodes are the error rates
// the chain has solved so far, oldest first; the vectors before prev are
// the history this method keeps in aw. k = 1 leaves prev as it is (the
// plain warm start), k = 2 is the secant, k = 3 the quadratic fit. Below
// the error threshold the Perron vector moves smoothly in p, so the start's
// error falls from O(Δp) to O(Δp^k) for a grid step Δp.
//
// The history is chain-local: the caller passes the nodes of the current
// chain only and calls ExtrapolateStart once per warm point, in chain
// order, with prev the vector the previous point converged to. Its results
// then depend on the chain alone, never on which worker runs it. Where two
// nodes coincide or a Lagrange weight is not finite, prev stays the plain
// warm start. Each product is rounded by an explicit float64 conversion,
// so the compiler may not fuse it into an FMA: the start is the same on
// every amd64 level.
//
// One serial pass over prev writes the start and rotates the history:
//
//	a = prev[i]; prev[i] = ℓ₀·a + ℓ₁·h₁[i] + ℓ₂·h₂[i]; h₂[i] = a
//
// followed by swapping h₁ and h₂. The two history vectors are allocated on
// first use and reused, so a warm sweep allocates nothing per point.
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
	h1, h2 := aw.hist[0][:n], aw.hist[1][:n]
	l, k := lagrangeWeights(p, nodes[max(0, len(nodes)-3):])
	switch k {
	case 3:
		for i, a := range prev {
			prev[i] = float64(l[0]*a) + float64(l[1]*h1[i]) + float64(l[2]*h2[i])
			h2[i] = a
		}
	case 2:
		for i, a := range prev {
			prev[i] = float64(l[0]*a) + float64(l[1]*h1[i])
			h2[i] = a
		}
	default:
		copy(h2, prev)
	}
	aw.hist[0], aw.hist[1] = h2, h1
}

// lagrangeWeights returns the Lagrange weights at p of the nodes (oldest
// first, at most three), indexed newest first: ℓⱼ belongs to the node
// x_j = nodes[len(nodes)−1−j] and is Π_{m≠j} (p − x_m)/(x_j − x_m), the
// factors taken in ascending m. k is the number of weights to apply: 1 —
// the plain warm start, ℓ₀ = 1 — for a single node and for a weight that
// is not finite, which includes every weight of a node that coincides
// with another (its denominator is zero).
func lagrangeWeights(p float64, nodes []float64) (l [3]float64, k int) {
	plain := [3]float64{1}
	k = len(nodes)
	var x [3]float64
	for j := range k {
		x[j] = nodes[k-1-j]
	}
	switch k {
	case 2:
		l[0] = (p - x[1]) / (x[0] - x[1])
		l[1] = (p - x[0]) / (x[1] - x[0])
	case 3:
		l[0] = ((p - x[1]) / (x[0] - x[1])) * ((p - x[2]) / (x[0] - x[2]))
		l[1] = ((p - x[0]) / (x[1] - x[0])) * ((p - x[2]) / (x[1] - x[2]))
		l[2] = ((p - x[0]) / (x[2] - x[0])) * ((p - x[1]) / (x[2] - x[1]))
	default:
		return plain, 1
	}
	for _, w := range l[:k] {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return plain, 1
		}
	}
	return l, k
}
