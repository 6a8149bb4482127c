package bits

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpaceSize(t *testing.T) {
	cases := []struct {
		nu   int
		want int
	}{{0, 1}, {1, 2}, {10, 1024}, {20, 1 << 20}, {62, 1 << 62}}
	for _, c := range cases {
		if got := SpaceSize(c.nu); got != c.want {
			t.Errorf("SpaceSize(%d) = %d, want %d", c.nu, got, c.want)
		}
	}
}

func TestSpaceSizePanics(t *testing.T) {
	for _, nu := range []int{-1, 63, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpaceSize(%d) did not panic", nu)
				}
			}()
			SpaceSize(nu)
		}()
	}
}

func TestHamming(t *testing.T) {
	cases := []struct {
		i, j uint64
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0b1010, 0b0101, 4},
		{0b1111, 0b1110, 1},
		{math.MaxUint64, 0, 64},
	}
	for _, c := range cases {
		if got := Hamming(c.i, c.j); got != c.want {
			t.Errorf("Hamming(%b,%b) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestHammingIsMetric(t *testing.T) {
	// Symmetry and triangle inequality on random triples.
	f := func(i, j, k uint64) bool {
		if Hamming(i, j) != Hamming(j, i) {
			return false
		}
		return Hamming(i, k) <= Hamming(i, j)+Hamming(j, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayAdjacent(t *testing.T) {
	// Consecutive Gray codes differ in exactly one bit (footnote 2).
	for i := uint64(0); i < 1<<12; i++ {
		if d := Hamming(gray(i), gray(i+1)); d != 1 {
			t.Fatalf("Hamming(gray(%d), gray(%d)) = %d, want 1", i, i+1, d)
		}
	}
}

func TestGrayInverse(t *testing.T) {
	f := func(i uint64) bool { return grayInverse(gray(i)) == i && gray(grayInverse(i)) == i }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayIsPermutation(t *testing.T) {
	seen := make(map[uint64]bool, 1<<10)
	for i := uint64(0); i < 1<<10; i++ {
		g := gray(i)
		if g >= 1<<10 {
			t.Fatalf("gray(%d) = %d escapes the 10-bit space", i, g)
		}
		if seen[g] {
			t.Fatalf("gray(%d) = %d repeated", i, g)
		}
		seen[g] = true
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {20, 10, 184756},
		{62, 31, 465428353255261088}, {10, -1, 0}, {10, 11, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialFloatLargeN(t *testing.T) {
	// C(100,50) ≈ 1.0089e29; check ~10 significant digits.
	got := BinomialFloat(100, 50)
	const want = 1.0089134454556417e29
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("BinomialFloat(100,50) = %g, want ≈ %g", got, want)
	}
	if BinomialFloat(100, -1) != 0 || BinomialFloat(100, 101) != 0 {
		t.Error("BinomialFloat out-of-range must be 0")
	}
}

func TestClassSizesSum(t *testing.T) {
	// Σ_k |Γ_k| = N.
	for nu := 0; nu <= 30; nu++ {
		var sum uint64
		for _, s := range classSizes(nu) {
			sum += s
		}
		if sum != uint64(1)<<uint(nu) {
			t.Fatalf("ν=%d: Σ|Γ_k| = %d, want %d", nu, sum, uint64(1)<<uint(nu))
		}
	}
}

func TestClassRepresentative(t *testing.T) {
	for nu := 0; nu <= 20; nu++ {
		for k := 0; k <= nu; k++ {
			r := classRepresentative(nu, k)
			if Weight(r) != k {
				t.Fatalf("representative of Γ_%d has weight %d", k, Weight(r))
			}
		}
	}
}

func TestEnumerateWeightCountsAndOrder(t *testing.T) {
	for nu := 0; nu <= 14; nu++ {
		for k := 0; k <= nu; k++ {
			var count uint64
			last := int64(-1)
			EnumerateWeight(nu, k, func(v uint64) {
				count++
				if Weight(v) != k {
					t.Fatalf("EnumerateWeight(%d,%d) produced weight %d", nu, k, Weight(v))
				}
				if int64(v) <= last {
					t.Fatalf("EnumerateWeight(%d,%d) not strictly increasing", nu, k)
				}
				last = int64(v)
			})
			if count != Binomial(nu, k) {
				t.Fatalf("EnumerateWeight(%d,%d) visited %d values, want %d", nu, k, count, Binomial(nu, k))
			}
		}
	}
}

func TestEnumerateClassXORStructure(t *testing.T) {
	const nu = 8
	var center uint64 = 0b10110010
	for k := 0; k <= nu; k++ {
		seen := map[uint64]bool{}
		enumerateClass(nu, k, center, func(j uint64) {
			if Hamming(center, j) != k {
				t.Fatalf("Γ_{%d,%d} member %d has distance %d", k, center, j, Hamming(center, j))
			}
			seen[j] = true
		})
		if uint64(len(seen)) != Binomial(nu, k) {
			t.Fatalf("|Γ_{%d,·}| = %d, want %d", k, len(seen), Binomial(nu, k))
		}
	}
}

func TestEnumerateUpToWeight(t *testing.T) {
	const nu, dmax = 10, 3
	var n uint64
	prevW := 0
	EnumerateUpToWeight(nu, dmax, func(v uint64, w int) {
		if Weight(v) != w || w > dmax {
			t.Fatalf("bad (v,w) = (%d,%d)", v, w)
		}
		if w < prevW {
			t.Fatal("weights not non-decreasing")
		}
		prevW = w
		n++
	})
	if n != NeighborhoodSize(nu, dmax) {
		t.Fatalf("visited %d masks, want %d", n, NeighborhoodSize(nu, dmax))
	}
}

func TestNeighborhoodSizeFullSpace(t *testing.T) {
	if got := NeighborhoodSize(12, 12); got != 1<<12 {
		t.Errorf("NeighborhoodSize(12,12) = %d, want %d", got, 1<<12)
	}
	if got := NeighborhoodSize(12, 20); got != 1<<12 {
		t.Errorf("dmax > ν must clamp: got %d", got)
	}
	if got := NeighborhoodSize(12, 0); got != 1 {
		t.Errorf("NeighborhoodSize(12,0) = %d, want 1", got)
	}
}

func TestBitIndices(t *testing.T) {
	got := BitIndices(0b101101)
	want := []int{0, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("BitIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BitIndices = %v, want %v", got, want)
		}
	}
	if len(BitIndices(0)) != 0 {
		t.Error("BitIndices(0) must be empty")
	}
}

// TestSigmaProperties verifies properties (I)-(IV) from Section 5.1 of the
// paper for the bit permutations σ_{i,i'}.
func TestSigmaProperties(t *testing.T) {
	const nu = 10
	const N = 1 << nu
	src := []uint64{0b0000011111, 0b1010100011, 0b1111100000}
	dst := []uint64{0b1111100000, 0b0101010110, 0b0000011111}
	for c := range src {
		i, ip := src[c], dst[c]
		sigma := newSigmaPermutation(nu, i, ip)
		// (III) σ(i) = i'
		if got := sigma.Apply(i); got != ip {
			t.Fatalf("σ(%b) = %b, want %b", i, got, ip)
		}
		// (I) weight preservation for all j
		for j := uint64(0); j < N; j++ {
			if Weight(sigma.Apply(j)) != Weight(j) {
				t.Fatalf("σ does not preserve weight of %b", j)
			}
		}
		// (II) σ(Γ_k) = Γ_k: σ is injective + (I) implies this; verify injectivity.
		seen := make(map[uint64]bool, N)
		for j := uint64(0); j < N; j++ {
			v := sigma.Apply(j)
			if seen[v] {
				t.Fatalf("σ not injective at %b", j)
			}
			seen[v] = true
		}
		// (IV) distance preservation dH(i,j) = dH(i', σ(j))
		for j := uint64(0); j < N; j++ {
			if Hamming(i, j) != Hamming(ip, sigma.Apply(j)) {
				t.Fatalf("σ does not preserve distances at j=%b", j)
			}
		}
	}
}

func TestSigmaPanicsOnDifferentClasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("σ for different error classes must panic")
		}
	}()
	newSigmaPermutation(8, 0b11, 0b111)
}

func TestSigmaRandomPairs(t *testing.T) {
	f := func(a, b uint16) bool {
		const nu = 16
		i, ip := uint64(a), uint64(b)
		if Weight(i) != Weight(ip) {
			return true // precondition not met, skip
		}
		s := newSigmaPermutation(nu, i, ip)
		if s.Apply(i) != ip {
			return false
		}
		// Spot-check distance preservation on derived points.
		for _, j := range []uint64{0, i, ip, i ^ ip, 0xffff} {
			if Hamming(i, j) != Hamming(ip, s.Apply(j)) {
				return false
			}
		}
		return s.Len() == nu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
