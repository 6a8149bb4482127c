package device

import "testing"

func TestAlignedFloat64sAlignmentAndShape(t *testing.T) {
	for _, n := range []int{1, 7, 8, 63, 64, 1000, 1 << 12, hugeAdviseMin} {
		v := AlignedFloat64s(n)
		if len(v) != n || cap(v) != n {
			t.Fatalf("n=%d: len=%d cap=%d, want both %d", n, len(v), cap(v), n)
		}
		if !isAligned(v) {
			t.Fatalf("n=%d: first element not %d-byte aligned", n, CacheLine)
		}
		for i, x := range v {
			if x != 0 {
				t.Fatalf("n=%d: element %d = %v, want zeroed", n, i, x)
			}
		}
	}
	if AlignedFloat64s(0) != nil || AlignedFloat64s(-3) != nil {
		t.Error("non-positive n must return nil")
	}
	if !isAligned(nil) {
		t.Error("empty slice counts as aligned")
	}
}

func TestAllocVectorFirstTouchVariants(t *testing.T) {
	n := 1 << 15
	serial := AllocVector(n)
	if len(serial) != n {
		t.Fatal("wrong length")
	}
	if !isAligned(serial) {
		t.Fatal("AllocVector results must be aligned")
	}
	for i := 0; i < n; i++ {
		if serial[i] != 0 {
			t.Fatalf("element %d not zeroed", i)
		}
	}
	if got := AllocVector(0); len(got) != 0 {
		t.Error("n=0 must return an empty vector")
	}
}
