package mutation

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/vec"
)

// processOfKind builds a single-bit process whose every factor has the
// requested butterfly kind; random general factors are not stochastic, so
// the constructors would reject them and the process is assembled directly.
func processOfKind(r *rng.Source, kind, nu int) *Process {
	fs := factorsForKind(r, kind, nu)
	gs := make([]group, nu)
	for k := range gs {
		gs[k] = group{offset: k, bitsLen: 1, f2: fs[k]}
	}
	q := &Process{nu: nu, n: 1 << uint(nu), groups: gs}
	q.finalize()
	return q
}

// groupedProcess builds a process from dense factors of the given sizes in
// bits, low bits first.
func groupedProcess(t *testing.T, r *rng.Source, layout []int) *Process {
	t.Helper()
	factors := make([]*dense.Matrix, len(layout))
	for i, gbits := range layout {
		factors[i] = randStochasticMatrix(r, 1<<uint(gbits))
	}
	q, err := NewGrouped(factors)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// scaledDevices are the execution targets of ApplyFused: serial (nil) and
// devices whose chunk plans split tiles and tile groups unevenly.
func scaledDevices() map[string]*device.Device {
	return map[string]*device.Device{
		"serial":    nil,
		"1-worker":  device.New(1),
		"2-workers": device.New(2, device.WithGrain(64)),
		"3-workers": device.New(3, device.WithGrain(64)),
	}
}

// TestApplyScaledBitIdenticalToMulThenApply: folding the diagonal scale
// into the first tile pass (ApplyFused with a pre scale and no epilogue)
// must reproduce Mul followed by Apply (serial) or
// ApplyDevice exactly, for every butterfly kind, grouped layouts (the
// grouped-first fallback and a group after a fused run), tile sizes below,
// at and above N, in place and out of place, and at every kernel tier.
func TestApplyScaledBitIdenticalToMulThenApply(t *testing.T) {
	r := rng.New(2027)
	type proc struct {
		name string
		q    *Process
	}
	var procs []proc
	for _, nu := range []int{1, 2, 5, 11, 12, 13} {
		for kind, name := range []string{kindGeneral: "general", kindStochastic: "stochastic"} {
			procs = append(procs, proc{name: name, q: processOfKind(r, kind, nu)})
		}
	}
	procs = append(procs,
		proc{"grouped-first", groupedProcess(t, r, []int{2, 1, 1, 1, 3, 1})},
		proc{"grouped-mid", groupedProcess(t, r, []int{1, 1, 3, 1, 2})})

	for _, tier := range kernelTiers(t) {
		vec.SetTier(tier)
		for _, p := range procs {
			q, n := p.q, p.q.Dim()
			src, d := randVector(r, n), randVector(r, n)
			for _, tb := range []int{1, 3, q.ChainLen(), defaultTileBits} {
				withTileBits(t, tb, func() {
					for name, dev := range scaledDevices() {
						want := make([]float64, n)
						vec.Mul(want, src, d)
						if dev != nil {
							q.ApplyDevice(dev, want)
						} else {
							q.Apply(want)
						}
						got := make([]float64, n)
						q.ApplyFused(dev, got, src, d, Epilogue{})
						inPlace := vec.Clone(src)
						q.ApplyFused(dev, inPlace, inPlace, d, Epilogue{})
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
								math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s ν=%d tb=%d %s tier=%v: entry %d = %v (in place %v), Mul+Apply %v",
									p.name, q.ChainLen(), tb, name, tier, i, got[i], inPlace[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestApplyScaledDoesNotAllocate: the serial ApplyFused allocates nothing,
// with a pre scale, with an epilogue and with a nil pre out of place (the
// copy the first tile pass reads through). On a 2-worker device a launch
// allocates its closure, so there the pre scale and the folded copy must
// add nothing to what ApplyDevice allocates for the same launches.
func TestApplyScaledDoesNotAllocate(t *testing.T) {
	q := MustUniform(12, 0.01)
	n := q.Dim()
	src, d, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	vec.Fill(src, 1)
	vec.Fill(d, 2)
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyFused(nil, dst, src, d, Epilogue{}) }); allocs != 0 {
		t.Errorf("serial ApplyFused allocates %.0f objects per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyFused(nil, dst, src, nil, Epilogue{}) }); allocs != 0 {
		t.Errorf("serial ApplyFused with a nil pre out of place allocates %.0f objects per call", allocs)
	}
	out, z := make([]float64, n), make([]float64, n)
	ep := Epilogue{Post: d, Out: out, Z: z, S: 0.5, C: 0.25}
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyFused(nil, dst, src, d, ep) }); allocs != 0 {
		t.Errorf("serial ApplyFused with an epilogue allocates %.0f objects per call", allocs)
	}

	dev := device.New(2)
	launches := testing.AllocsPerRun(10, func() { q.ApplyDevice(dev, dst) })
	for name, pre := range map[string][]float64{"pre": d, "nil pre": nil} {
		if allocs := testing.AllocsPerRun(10, func() { q.ApplyFused(dev, dst, src, pre, Epilogue{}) }); allocs > launches {
			t.Errorf("2-worker ApplyFused (%s) allocates %.0f objects per call, ApplyDevice %.0f", name, allocs, launches)
		}
	}
}

// separateEpilogue is the unfused reference of ApplyFused: Mul, then Apply
// or ApplyDevice, then Mul by post, then the three-term pass in the
// expression shape of core's chebMap2.
func separateEpilogue(q *Process, dev *device.Device, dst, src, pre []float64, ep Epilogue) {
	switch {
	case pre != nil:
		vec.Mul(dst, src, pre)
	default:
		copy(dst, src)
	}
	if dev != nil {
		q.ApplyDevice(dev, dst)
	} else {
		q.Apply(dst)
	}
	if ep.Post != nil {
		vec.Mul(dst, dst, ep.Post)
	}
	if ep.Out != nil {
		for i := range ep.Out {
			ep.Out[i] = ep.S*(dst[i]-ep.C*ep.Z[i]) - ep.Out[i]
		}
	}
}

// TestApplyFusedEpilogueBitIdentical: the epilogue fused into the last
// butterfly pass — a tile pass (ν ≤ 12 at the default tile), a cross-stage
// group (ν ≥ 13, or small tiles) or, for a grouped last factor, its own
// pass — must reproduce Apply → Mul → three-term bit for bit, for every
// butterfly kind, every epilogue shape, with and without the leading scale,
// serially and on 1/2/3 device workers, at every kernel tier. The
// GOAMD64=v3 CI leg runs it with FMA contraction enabled.
func TestApplyFusedEpilogueBitIdentical(t *testing.T) {
	r := rng.New(2031)
	type proc struct {
		name string
		q    *Process
	}
	var procs []proc
	for _, nu := range []int{1, 2, 11, 12, 13, 16, 17} {
		for kind, name := range []string{kindGeneral: "general", kindStochastic: "stochastic"} {
			procs = append(procs, proc{name: name, q: processOfKind(r, kind, nu)})
		}
	}
	procs = append(procs,
		proc{"grouped-last", groupedProcess(t, r, []int{1, 1, 3, 1, 2})},
		proc{"grouped-first", groupedProcess(t, r, []int{2, 1, 1, 1, 3, 1})})

	for _, tier := range kernelTiers(t) {
		vec.SetTier(tier)
		for _, p := range procs {
			q, n := p.q, p.q.Dim()
			src, pre, post := randVector(r, n), randVector(r, n), randVector(r, n)
			z, out0 := randVector(r, n), randVector(r, n)
			shapes := map[string]Epilogue{
				"post":       {Post: post},
				"three-term": {Out: out0, Z: z, S: 2 / 0.37, C: 0.61},
				"post+three": {Post: post, Out: out0, Z: z, S: 2 / 0.37, C: 0.61},
			}
			tbs := []int{defaultTileBits}
			if q.ChainLen() <= 12 {
				tbs = append(tbs, 3) // small tiles: the last pass is a cross group
			}
			for _, tb := range tbs {
				withTileBits(t, tb, func() {
					for dname, dev := range scaledDevices() {
						for sname, shape := range shapes {
							for _, withPre := range []bool{true, false} {
								var d []float64
								if withPre {
									d = pre
								}
								want, wantEp := make([]float64, n), shape
								if shape.Out != nil {
									wantEp.Out = vec.Clone(out0)
								}
								separateEpilogue(q, dev, want, src, d, wantEp)
								got, gotEp := make([]float64, n), shape
								if shape.Out != nil {
									gotEp.Out = vec.Clone(out0)
								}
								q.ApplyFused(dev, got, src, d, gotEp)
								for i := range want {
									if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
										(shape.Out != nil && math.Float64bits(gotEp.Out[i]) != math.Float64bits(wantEp.Out[i])) {
										t.Fatalf("%s ν=%d tb=%d %s %s pre=%v tier=%v: entry %d differs from the separate passes",
											p.name, q.ChainLen(), tb, dname, sname, withPre, tier, i)
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
