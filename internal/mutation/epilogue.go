package mutation

import (
	"repro/internal/device"
	"repro/internal/vec"
)

// Epilogue is an elementwise tail that ApplyFused runs on the product
// v = Q·(src ⊙ pre) inside the last butterfly pass, on each tile or column
// chunk while it is still cache-resident:
//
//	v   ← v ⊙ Post               (skipped when Post is nil)
//	Out ← S·(v − C·Z) − Out      (skipped when Out is nil)
//
// The first line is the trailing diagonal of the F^½·Q·F^½ and F·Q
// formulations; the second is the Chebyshev three-term step
// z_{j+1} = 2·A′z_j − z_{j−1} with S = 2/e, C the interval centre,
// Z = z_j and Out = z_{j−1} on entry. Each element goes through exactly
// the operations of a separate Mul pass followed by a separate three-term
// pass, so the fused result is bit-identical to running them as passes.
// Post, Out and Z are indexed like v; Out and Z must not alias v, and Out
// must not alias Z or Post.
type Epilogue struct {
	Post   []float64
	Out, Z []float64
	S, C   float64
}

// active reports whether the epilogue does anything.
func (ep *Epilogue) active() bool { return ep.Post != nil || ep.Out != nil }

// run applies the epilogue to the element range [lo, hi) of v.
func (ep *Epilogue) run(v []float64, lo, hi int) {
	vs := v[lo:hi]
	switch {
	case ep.Out == nil:
		vec.Mul(vs, vs, ep.Post[lo:hi])
	case ep.Post == nil:
		threeTerm(ep.Out[lo:hi], vs, ep.Z[lo:hi], ep.S, ep.C)
	default:
		scaleThreeTerm(vs, ep.Post[lo:hi], ep.Out[lo:hi], ep.Z[lo:hi], ep.S, ep.C)
	}
}

// runPass applies the epilogue to all of v as a pass of its own: the
// fallback when the last butterfly pass is a grouped factor. The value
// receiver keeps the caller's Epilogue off the heap.
func (ep Epilogue) runPass(dev *device.Device, v []float64) {
	if dev == nil {
		ep.run(v, 0, len(v))
		return
	}
	dev.LaunchRange(len(v), func(lo, hi int) { ep.run(v, lo, hi) })
}

// threeTerm computes out ← s·(w − c·z) − out over the common prefix of the
// slices, the expression shape of core's chebMap2 so that FMA contraction
// (GOAMD64=v3) treats both alike.
func threeTerm(out, w, z []float64, s, c float64) {
	for len(out) >= 4 && len(w) >= 4 && len(z) >= 4 {
		out[0] = s*(w[0]-c*z[0]) - out[0]
		out[1] = s*(w[1]-c*z[1]) - out[1]
		out[2] = s*(w[2]-c*z[2]) - out[2]
		out[3] = s*(w[3]-c*z[3]) - out[3]
		out, w, z = out[4:], w[4:], z[4:]
	}
	for len(out) > 0 && len(w) > 0 && len(z) > 0 {
		out[0] = s*(w[0]-c*z[0]) - out[0]
		out, w, z = out[1:], w[1:], z[1:]
	}
}

// scaleThreeTerm is v ← v ⊙ post followed by threeTerm(out, v, z, s, c) in
// one sweep. The explicit float64 conversion rounds the product before it
// enters the three-term expression, as the store of a separate Mul pass
// does, so no FMA can fuse across the two.
func scaleThreeTerm(v, post, out, z []float64, s, c float64) {
	for len(v) >= 4 && len(post) >= 4 && len(out) >= 4 && len(z) >= 4 {
		w0 := float64(v[0] * post[0])
		w1 := float64(v[1] * post[1])
		w2 := float64(v[2] * post[2])
		w3 := float64(v[3] * post[3])
		v[0], v[1], v[2], v[3] = w0, w1, w2, w3
		out[0] = s*(w0-c*z[0]) - out[0]
		out[1] = s*(w1-c*z[1]) - out[1]
		out[2] = s*(w2-c*z[2]) - out[2]
		out[3] = s*(w3-c*z[3]) - out[3]
		v, post, out, z = v[4:], post[4:], out[4:], z[4:]
	}
	for len(v) > 0 && len(post) > 0 && len(out) > 0 && len(z) > 0 {
		w := float64(v[0] * post[0])
		v[0] = w
		out[0] = s*(w-c*z[0]) - out[0]
		v, post, out, z = v[1:], post[1:], out[1:], z[1:]
	}
}
