package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	if v == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %g, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %g, want ≈ %g", variance, 1.0/12)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 7, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nCoversRange(t *testing.T) {
	r := New(5)
	seen := make([]bool, 8)
	for i := 0; i < 1000; i++ {
		seen[r.Uint64n(8)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Uint64n(8) never produced %d in 1000 draws", v)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) must panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.intRange(-5, 5)
		if v < -5 || v > 5 {
			t.Fatalf("intRange(-5,5) = %d", v)
		}
	}
	if r.intRange(3, 3) != 3 {
		t.Error("degenerate intRange must return the single value")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ≈ 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	out := make([]int, 100)
	r.perm(out)
	seen := make([]bool, 100)
	for _, v := range out {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("perm produced invalid permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	child := parent.Split()
	if parent.Uint64() == child.Uint64() {
		t.Error("Split stream tracks parent stream")
	}
}

// intRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *Source) intRange(lo, hi int) int {
	if hi < lo {
		panic("rng: intRange with hi < lo")
	}
	return lo + int(r.Uint64n(uint64(hi-lo+1)))
}

// perm fills out with a uniform random permutation of 0..len(out)-1
// using Fisher–Yates.
func (r *Source) perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
}
