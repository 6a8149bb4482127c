package mutation

import (
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/vec"
)

// The blocked kernels reorder memory traversal but not the per-element
// dataflow, and strength-reduce the symmetric butterfly to a single
// multiply (see blocked.go). The reduced forms are exact in real arithmetic
// and differ from the literal a·t1 + b·t2 reference by at most ~1 ULP of
// ‖v‖∞ per stage, so blocked vs naive is compared under naiveTol below.
// Within the blocked family the dataflow is worker-independent, so serial
// vs device results are asserted BIT-IDENTICAL (exact equality).

// naiveTol bounds the rounding divergence between the strength-reduced and
// the literal butterfly over nStages stages: each stage perturbs an element
// by at most a couple of ULPs of the running magnitude, which the
// row-stochastic factors never grow beyond ‖v‖∞.
func naiveTol(nStages int, v []float64) float64 {
	return 4e-16 * float64(nStages+1) * (1 + vec.NormInf(v))
}

// withTileBits runs f under a temporary global tile size.
func withTileBits(t *testing.T, bits int, f func()) {
	t.Helper()
	old := TileBits()
	SetTileBits(bits)
	defer SetTileBits(old)
	f()
}

// tileSizes spans the interesting regimes for a vector of 2^nu elements:
// the degenerate B = 2 tile, tiles smaller than, equal to and larger than
// the vector, and the default.
func tileSizes(nu int) []int {
	sizes := []int{1, 2, 3}
	if nu > 1 {
		sizes = append(sizes, nu-1, nu)
	}
	sizes = append(sizes, nu+2, defaultTileBits)
	return sizes
}

func TestBlockedApplyMatchesNaiveUniform(t *testing.T) {
	r := rng.New(7)
	for nu := 1; nu <= 12; nu++ {
		p := 0.001 + 0.499*r.Float64()
		q := MustUniform(nu, p)
		v := randVector(r, q.Dim())
		for _, tb := range tileSizes(nu) {
			withTileBits(t, tb, func() {
				got := vec.Clone(v)
				q.Apply(got)
				want := vec.Clone(v)
				q.ApplyNaive(want)
				if d := vec.DistInf(got, want); d > naiveTol(nu, v) {
					t.Errorf("ν=%d p=%g tileBits=%d: blocked Apply deviates from naive by %g (tol %g)",
						nu, p, tb, d, naiveTol(nu, v))
				}
			})
		}
	}
}

func TestBlockedApplyMatchesNaivePerSite(t *testing.T) {
	r := rng.New(8)
	for nu := 1; nu <= 12; nu++ {
		factors := make([]Factor2, nu)
		for k := range factors {
			factors[k] = randStochasticFactor(r)
		}
		q, err := NewPerSite(factors)
		if err != nil {
			t.Fatal(err)
		}
		v := randVector(r, q.Dim())
		for _, tb := range tileSizes(nu) {
			withTileBits(t, tb, func() {
				got := vec.Clone(v)
				q.Apply(got)
				want := vec.Clone(v)
				q.ApplyNaive(want)
				if d := vec.DistInf(got, want); d > naiveTol(nu, v) {
					t.Errorf("ν=%d tileBits=%d: per-site blocked Apply deviates from naive by %g", nu, tb, d)
				}
			})
		}
	}
}

func TestBlockedApplyMatchesNaiveGrouped(t *testing.T) {
	r := rng.New(9)
	// Grouped factors interleave fused single-bit runs with dense groups;
	// the layouts (group sizes in bits) cover runs before, between and
	// after groups.
	layouts := [][]int{
		{2, 1, 1},       // group on the low bits, run above
		{1, 1, 3, 1},    // run – group – run
		{1, 3, 2},       // mixed group sizes
		{1, 1, 1, 1, 1}, // pure single-bit run expressed via NewGrouped
		{2, 2},          // groups only, no fused run
	}
	for _, layout := range layouts {
		factors := make([]*dense.Matrix, len(layout))
		nu := 0
		for i, gbits := range layout {
			factors[i] = randStochasticMatrix(r, 1<<uint(gbits))
			nu += gbits
		}
		q, err := NewGrouped(factors)
		if err != nil {
			t.Fatal(err)
		}
		v := randVector(r, q.Dim())
		for _, tb := range tileSizes(nu) {
			withTileBits(t, tb, func() {
				got := vec.Clone(v)
				q.Apply(got)
				want := vec.Clone(v)
				q.ApplyNaive(want)
				if d := vec.DistInf(got, want); d > naiveTol(nu, v) {
					t.Errorf("layout %v tileBits=%d: grouped blocked Apply deviates from naive by %g", layout, tb, d)
				}
			})
		}
	}
}

func TestBlockedApplyProperty(t *testing.T) {
	// Random ν, p, tile size and fuse depth: the serial blocked engine must
	// reproduce the naive stage loop exactly.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(12))
		p := 0.001 + 0.499*r.Float64()
		tb := 1 + int(r.Uint64n(uint64(nu)+3))
		fuse := 1 + int(r.Uint64n(maxFuseStages))
		q := MustUniform(nu, p)
		got := randVector(r, q.Dim())
		want := vec.Clone(got)
		tol := naiveTol(nu, got)
		applyStagesBlocked(got, 0, q.segs[0].fs, tb, fuse)
		q.ApplyNaive(want)
		return vec.DistInf(got, want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockedFWHTMatchesNaive(t *testing.T) {
	r := rng.New(10)
	for nu := 0; nu <= 13; nu++ {
		v := randVector(r, 1<<uint(nu))
		for _, tb := range tileSizes(nu) {
			for fuse := 1; fuse <= maxFuseStages; fuse++ {
				got := vec.Clone(v)
				fwhtBlocked(got, tb, fuse)
				want := vec.Clone(v)
				FWHTNaive(want)
				if vec.DistInf(got, want) != 0 {
					t.Errorf("ν=%d tileBits=%d fuse=%d: blocked FWHT differs from naive", nu, tb, fuse)
				}
			}
		}
	}
}

func TestBlockedApplyInverseRoundTrip(t *testing.T) {
	r := rng.New(11)
	for _, nu := range []int{1, 4, 9, 12} {
		p := 0.001 + 0.4*r.Float64()
		q := MustUniform(nu, p)
		v := randVector(r, q.Dim())
		for _, tb := range tileSizes(nu) {
			withTileBits(t, tb, func() {
				w := vec.Clone(v)
				q.Apply(w)
				q.ApplyInverse(w)
				if d := vec.DistInf(w, v); d > 1e-8 {
					t.Errorf("ν=%d p=%g tileBits=%d: Q⁻¹·Q·v deviates by %g", nu, p, tb, d)
				}
			})
		}
	}
}

// TestBlockedDeviceBitIdenticalAcrossWorkers asserts the determinism
// contract of the parallel kernels: because butterflies are element-
// independent and reductions combine in fixed chunk order, every worker
// count must produce bit-identical vectors, for the blocked kernels and for
// the per-stage device kernel of Algorithm 2 alike.
func TestBlockedDeviceBitIdenticalAcrossWorkers(t *testing.T) {
	r := rng.New(12)
	devs := []*device.Device{
		device.Serial(),
		device.New(2, device.WithGrain(1)),
		device.New(3, device.WithGrain(2)),
		device.New(8, device.WithGrain(1)),
	}
	for _, nu := range []int{1, 5, 10, 12} {
		p := 0.001 + 0.499*r.Float64()
		q := MustUniform(nu, p)
		v := randVector(r, q.Dim())
		wantNaive := vec.Clone(v)
		q.ApplyNaive(wantNaive)
		for _, tb := range []int{2, defaultTileBits} {
			withTileBits(t, tb, func() {
				want := vec.Clone(v)
				q.Apply(want) // serial blocked reference at this tile size
				for _, d := range devs {
					got := vec.Clone(v)
					q.ApplyDevice(d, got)
					if vec.DistInf(got, want) != 0 {
						t.Errorf("ν=%d tileBits=%d %v: ApplyDevice not bit-identical to serial", nu, tb, d)
					}
					got = vec.Clone(v)
					for _, g := range q.groups {
						q.applyGroupDeviceNaive(d, g, got)
					}
					if vec.DistInf(got, wantNaive) != 0 {
						t.Errorf("ν=%d tileBits=%d %v: device naive kernel not bit-identical to serial naive", nu, tb, d)
					}
				}
			})
		}
		wantH := vec.Clone(v)
		FWHT(wantH)
		for _, d := range devs {
			got := vec.Clone(v)
			FWHTDevice(d, got)
			if vec.DistInf(got, wantH) != 0 {
				t.Errorf("ν=%d %v: FWHTDevice not bit-identical to serial", nu, d)
			}
		}
	}
}

func TestBlockedDeviceGroupedMatchesSerial(t *testing.T) {
	r := rng.New(13)
	factors := []*dense.Matrix{
		randStochasticMatrix(r, 2),
		randStochasticMatrix(r, 4),
		randStochasticMatrix(r, 2),
		randStochasticMatrix(r, 8), // ν = 1+2+1+3 = 7
	}
	q, err := NewGrouped(factors)
	if err != nil {
		t.Fatal(err)
	}
	v := randVector(r, q.Dim())
	want := vec.Clone(v)
	q.Apply(want)
	for _, workers := range []int{1, 2, 7} {
		d := device.New(workers, device.WithGrain(1))
		got := vec.Clone(v)
		q.ApplyDevice(d, got)
		if vec.DistInf(got, want) != 0 {
			t.Errorf("workers=%d: grouped ApplyDevice not bit-identical to serial", workers)
		}
	}
}

func TestSetTileBitsClamps(t *testing.T) {
	old := TileBits()
	defer SetTileBits(old)
	SetTileBits(-5)
	if TileBits() != 1 {
		t.Errorf("SetTileBits(-5) → %d, want clamp to 1", TileBits())
	}
	SetTileBits(99)
	if TileBits() != 30 {
		t.Errorf("SetTileBits(99) → %d, want clamp to 30", TileBits())
	}
}
