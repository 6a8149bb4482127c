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
// requested butterfly kind; unit-difference factors are not stochastic, so
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

// scaledDevices are the execution targets of ApplyScaled: serial (nil) and
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
// into the first tile pass must reproduce Mul followed by Apply (serial) or
// ApplyDevice exactly, for every butterfly kind, grouped layouts (the
// grouped-first fallback and a group after a fused run), tile sizes below,
// at and above N, in place and out of place, and on both the AVX2 and the
// pure-Go kernels.
func TestApplyScaledBitIdenticalToMulThenApply(t *testing.T) {
	r := rng.New(2027)
	type proc struct {
		name string
		q    *Process
	}
	var procs []proc
	for _, nu := range []int{1, 2, 5, 11, 12, 13} {
		for kind, name := range []string{kindGeneral: "general", kindStochastic: "stochastic", kindUnitDiff: "unit-diff"} {
			procs = append(procs, proc{name: name, q: processOfKind(r, kind, nu)})
		}
	}
	procs = append(procs,
		proc{"grouped-first", groupedProcess(t, r, []int{2, 1, 1, 1, 3, 1})},
		proc{"grouped-mid", groupedProcess(t, r, []int{1, 1, 3, 1, 2})})

	avx := []bool{useAVX2}
	if avx2Detected {
		avx = []bool{true, false}
	}
	was := useAVX2
	defer func() { useAVX2 = was }()
	for _, useAVX := range avx {
		useAVX2 = useAVX
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
						q.ApplyScaled(dev, got, src, d)
						inPlace := vec.Clone(src)
						q.ApplyScaled(dev, inPlace, inPlace, d)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
								math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s ν=%d tb=%d %s avx=%v: entry %d = %v (in place %v), Mul+Apply %v",
									p.name, q.ChainLen(), tb, name, useAVX, i, got[i], inPlace[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

func TestApplyScaledDoesNotAllocate(t *testing.T) {
	q := MustUniform(12, 0.01)
	n := q.Dim()
	src, d, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	vec.Fill(src, 1)
	vec.Fill(d, 2)
	if allocs := testing.AllocsPerRun(10, func() { q.ApplyScaled(nil, dst, src, d) }); allocs != 0 {
		t.Errorf("serial ApplyScaled allocates %.0f objects per call", allocs)
	}
}
