package mutation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/vec"
)

func randVector(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

func randStochasticFactor(r *rng.Source) Factor2 {
	c0 := r.Float64()
	c1 := r.Float64()
	return Factor2{A: 1 - c0, B: c1, C: c0, D: 1 - c1}
}

func randStochasticMatrix(r *rng.Source, n int) *dense.Matrix {
	m := dense.NewMatrix(n, n)
	for c := 0; c < n; c++ {
		var sum float64
		col := make([]float64, n)
		for i := range col {
			col[i] = r.Float64() + 1e-3
			sum += col[i]
		}
		for i := range col {
			m.Set(i, c, col[i]/sum)
		}
	}
	return m
}

func TestValidateRate(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.25, 0.5} {
		if err := ValidateRate(p); err != nil {
			t.Errorf("ValidateRate(%g) = %v", p, err)
		}
	}
	for _, p := range []float64{0, -0.1, 0.51, 1, math.NaN()} {
		if err := ValidateRate(p); err == nil {
			t.Errorf("ValidateRate(%g) must fail", p)
		}
	}
}

func TestEntryAndClassValues(t *testing.T) {
	const nu = 6
	const p = 0.03
	qv := ClassValues(nu, p)
	for i := uint64(0); i < 1<<nu; i++ {
		for j := uint64(0); j < 1<<nu; j++ {
			if got, want := Entry(nu, p, i, j), qv[bits.Hamming(i, j)]; math.Abs(got-want) > 1e-16 {
				t.Fatalf("Entry(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	// QΓ₀ = (1−p)^ν, QΓ_ν = p^ν.
	if math.Abs(qv[0]-math.Pow(1-p, nu)) > 1e-16 || math.Abs(qv[nu]-math.Pow(p, nu)) > 1e-16 {
		t.Error("class value endpoints wrong")
	}
}

func TestDenseQIsSymmetricStochastic(t *testing.T) {
	q := Dense(8, 0.05)
	if !q.IsSymmetric(0) {
		t.Error("uniform Q must be exactly symmetric")
	}
	for c, s := range q.ColumnSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("column %d sums to %.17g", c, s)
		}
	}
}

func TestDenseMatchesKroneckerDense(t *testing.T) {
	// Entrywise definition (Eq. 2) == Kronecker definition (Eq. 7).
	for _, nu := range []int{1, 2, 5, 8} {
		p := 0.07
		a := Dense(nu, p)
		b := MustUniform(nu, p).Dense()
		if vec.DistInf(a.Data, b.Data) > 1e-14 {
			t.Errorf("ν=%d: entrywise and Kronecker Q differ by %g", nu, vec.DistInf(a.Data, b.Data))
		}
	}
}

func TestFmmpMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(10))
		p := 0.001 + 0.499*r.Float64()
		q := MustUniform(nu, p)
		v := randVector(r, q.Dim())
		want := make([]float64, q.Dim())
		Dense(nu, p).MatVec(want, v)
		got := vec.Clone(v)
		q.Apply(got)
		return vec.DistInf(got, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFmmpVariantsAgree(t *testing.T) {
	r := rng.New(42)
	for _, nu := range []int{1, 3, 7, 11} {
		q := MustUniform(nu, 0.01)
		v := randVector(r, q.Dim())

		asc := vec.Clone(v)
		q.Apply(asc)

		desc := vec.Clone(v)
		q.ApplyDescending(desc)
		// The stage matrices commute exactly; only rounding order differs.
		if vec.DistInf(asc, desc) > 1e-13 {
			t.Errorf("ν=%d: Eq.9 and Eq.10 stage orders differ (max %g)", nu, vec.DistInf(asc, desc))
		}

		rec := vec.Clone(v)
		q.ApplyRecursive(rec)
		if vec.DistInf(asc, rec) > 1e-14 {
			t.Errorf("ν=%d: recursive and iterative Fmmp differ by %g", nu, vec.DistInf(asc, rec))
		}

		for _, workers := range []int{1, 2, 8} {
			dev := device.New(workers, device.WithGrain(4))
			par := vec.Clone(v)
			q.ApplyDevice(dev, par)
			if vec.DistInf(asc, par) != 0 {
				t.Errorf("ν=%d workers=%d: Algorithm 2 differs from Algorithm 1", nu, workers)
			}
		}
	}
}

func TestFmmpPreservesTotalMass(t *testing.T) {
	// Q is column stochastic ⇒ Σ(Q·v) = Σv.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(12))
		q := MustUniform(nu, 0.001+0.499*r.Float64())
		v := randVector(r, q.Dim())
		sum := vec.SumKahan(v)
		q.Apply(v)
		return math.Abs(vec.SumKahan(v)-sum) < 1e-10*(1+math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPerSiteMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(8))
		factors := make([]Factor2, nu)
		for i := range factors {
			factors[i] = randStochasticFactor(r)
		}
		q, err := NewPerSite(factors)
		if err != nil {
			return false
		}
		v := randVector(r, q.Dim())
		want := make([]float64, q.Dim())
		q.Dense().MatVec(want, v)
		got := vec.Clone(v)
		q.Apply(got)
		return vec.DistInf(got, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPerSiteFactorShapesMatchDense runs one accepted factor of each shape
// through Apply and the dense Q·v. The near-identity factor has a−b = 1
// exactly and a+b = 1+2⁻⁴³, inside NewPerSite's 1e-12 stochasticity
// tolerance: it is the one public input that is not a+b = 1 yet symmetric
// with a unit difference, and it takes the general butterfly.
func TestPerSiteFactorShapesMatchDense(t *testing.T) {
	const eps = 0x1p-44
	if a, b := 1+eps, eps; a-b != 1 || a+b == 1 {
		t.Fatalf("a−b = %v, a+b = %v: want exactly 1 and not 1", a-b, a+b)
	}
	for _, tc := range []struct {
		name string
		f    Factor2
		kind int
	}{
		{"uniform", UniformFactor(0.1), kindStochastic},
		{"asymmetric", Factor2{A: 0.9, B: 0.3, C: 0.1, D: 0.7}, kindGeneral},
		{"near-identity unit difference", Factor2{A: 1 + eps, B: eps, C: eps, D: 1 + eps}, kindGeneral},
	} {
		if k := butterflyKind(&tc.f); k != tc.kind {
			t.Errorf("%s: butterflyKind = %d, want %d", tc.name, k, tc.kind)
		}
		const nu = 6
		fs := make([]Factor2, nu)
		for i := range fs {
			fs[i] = tc.f
		}
		q, err := NewPerSite(fs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v := randVector(rng.New(6), q.Dim())
		want := make([]float64, q.Dim())
		q.Dense().MatVec(want, v)
		got := vec.Clone(v)
		q.Apply(got)
		if d := vec.DistInf(got, want); d > naiveTol(nu, want) {
			t.Errorf("%s: Apply deviates from dense Q·v by %g", tc.name, d)
		}
	}
}

func TestPerSiteUniformDetection(t *testing.T) {
	q, err := NewPerSite([]Factor2{UniformFactor(0.1), UniformFactor(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := q.Uniform(); !ok || p != 0.1 {
		t.Errorf("Uniform() = (%g,%v), want (0.1,true)", p, ok)
	}
	q2, err := NewPerSite([]Factor2{UniformFactor(0.1), UniformFactor(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q2.Uniform(); ok {
		t.Error("heterogeneous factors must not report uniform")
	}
}

// TestSymmetricMatchesDense: Symmetric reports exactly whether the dense Q
// equals its transpose, for uniform, per-site and grouped processes.
func TestSymmetricMatchesDense(t *testing.T) {
	r := rng.New(12)
	perSite := func(fs ...Factor2) *Process {
		q, err := NewPerSite(fs)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	grouped := func(ms ...*dense.Matrix) *Process {
		q, err := NewGrouped(ms)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, c := range []struct {
		name string
		q    *Process
		want bool
	}{
		{"uniform", MustUniform(5, 0.03), true},
		{"per-site symmetric", perSite(UniformFactor(0.1), UniformFactor(0.3)), true},
		{"per-site asymmetric", perSite(UniformFactor(0.1), Factor2{A: 0.99, B: 0.1, C: 0.01, D: 0.9}), false},
		{"grouped symmetric", grouped(UniformFactor(0.2).Dense(), Dense(2, 0.1)), true},
		{"grouped asymmetric", grouped(Dense(2, 0.1), randStochasticMatrix(r, 4)), false},
	} {
		if got := c.q.Symmetric(); got != c.want || got != c.q.Dense().IsSymmetric(0) {
			t.Errorf("%s: Symmetric() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPerSiteRejectsNonStochastic(t *testing.T) {
	if _, err := NewPerSite([]Factor2{{A: 0.5, B: 0.5, C: 0.6, D: 0.5}}); err == nil {
		t.Error("non-stochastic factor must be rejected")
	}
	if _, err := NewPerSite([]Factor2{{A: -0.1, B: 0.5, C: 1.1, D: 0.5}}); err == nil {
		t.Error("negative entries must be rejected")
	}
}

func TestGroupedMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		// Random partition of ν ≤ 8 into groups of size 1–3 bits.
		var mats []*dense.Matrix
		total := 0
		for total < 6 {
			g := 1 + int(r.Uint64n(3))
			if total+g > 8 {
				g = 1
			}
			mats = append(mats, randStochasticMatrix(r, 1<<g))
			total += g
		}
		q, err := NewGrouped(mats)
		if err != nil {
			return false
		}
		v := randVector(r, q.Dim())
		want := make([]float64, q.Dim())
		q.Dense().MatVec(want, v)
		got := vec.Clone(v)
		q.Apply(got)
		if vec.DistInf(got, want) > 1e-11 {
			return false
		}
		// Device path agrees too.
		dev := device.New(4, device.WithGrain(2))
		par := vec.Clone(v)
		q.ApplyDevice(dev, par)
		return vec.DistInf(par, want) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGroupedValidation(t *testing.T) {
	bad := dense.FromRows([][]float64{{0.5, 0.5}, {0.6, 0.5}})
	if _, err := NewGrouped([]*dense.Matrix{bad}); err == nil {
		t.Error("non-stochastic group must be rejected")
	}
	notSquare := dense.NewMatrix(2, 4)
	if _, err := NewGrouped([]*dense.Matrix{notSquare}); err == nil {
		t.Error("non-square group must be rejected")
	}
	odd := randStochasticMatrix(rng.New(1), 3)
	if _, err := NewGrouped([]*dense.Matrix{odd}); err == nil {
		t.Error("non-power-of-two group must be rejected")
	}
}

func TestGroupedStochasticClosure(t *testing.T) {
	// "The Kronecker product of two column stochastic matrices is again
	// column stochastic" — Section 2.2.
	r := rng.New(5)
	a := randStochasticMatrix(r, 4)
	b := randStochasticMatrix(r, 2)
	k := a.Kronecker(b)
	for c, s := range k.ColumnSums() {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d of A⊗B sums to %g", c, s)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	r := rng.New(6)
	q, err := NewGrouped([]*dense.Matrix{
		randStochasticMatrix(r, 4), randStochasticMatrix(r, 2), randStochasticMatrix(r, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 3}
	got := q.GroupSizes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GroupSizes = %v, want %v", got, want)
		}
	}
	if q.ChainLen() != 6 || q.Dim() != 64 {
		t.Errorf("ν = %d, N = %d", q.ChainLen(), q.Dim())
	}
}

func TestApplyDimensionPanics(t *testing.T) {
	q := MustUniform(4, 0.1)
	defer func() {
		if recover() == nil {
			t.Error("Apply with wrong length must panic")
		}
	}()
	q.Apply(make([]float64, 8))
}

func TestNewUniformValidation(t *testing.T) {
	if _, err := NewUniform(5, 0); err == nil {
		t.Error("p = 0 must be rejected")
	}
	if _, err := NewUniform(-1, 0.1); err == nil {
		t.Error("negative ν must be rejected")
	}
	if _, err := NewUniform(63, 0.1); err == nil {
		t.Error("ν > 62 must be rejected")
	}
}
