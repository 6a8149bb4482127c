package errorclass

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

func randPhi(r *rng.Source, nu int) []float64 {
	phi := make([]float64, nu+1)
	for k := range phi {
		phi[k] = 0.5 + 2*r.Float64()
	}
	return phi
}

func TestReducedQRowsAreStochastic(t *testing.T) {
	// Row d of QΓ sums over all possible target classes: Σ_k QΓ[d][k] = 1.
	// The four-letter rows are checked in rna's TestReducedQRowsStochastic.
	for _, nu := range []int{1, 5, 20, 100} {
		for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
			m, err := ReducedQ(nu, 2, p)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d <= nu; d++ {
				s := vec.Sum(m.Row(d))
				if math.Abs(s-1) > 1e-10 {
					t.Errorf("ν=%d p=%g: row %d sums to %.15g", nu, p, d, s)
				}
			}
		}
	}
}

// TestReducedQClassSymmetry: |Γd|·QΓ[d][k] = |Γk|·QΓ[k][d] with
// |Γk| = C(ν,k)·(a−1)^k, the detailed balance of the symmetric Q that
// Solve's class-total coordinates rest on.
func TestReducedQClassSymmetry(t *testing.T) {
	const nu = 12
	const p = 0.04
	for _, a := range []int{2, 4} {
		m, err := ReducedQ(nu, a, p)
		if err != nil {
			t.Fatal(err)
		}
		size := func(k int) float64 {
			return bits.BinomialFloat(nu, k) * math.Pow(float64(a-1), float64(k))
		}
		for d := 0; d <= nu; d++ {
			for k := 0; k <= nu; k++ {
				lhs := size(d) * m.At(d, k)
				rhs := size(k) * m.At(k, d)
				if math.Abs(lhs-rhs) > 1e-12*(lhs+rhs+1e-300) {
					t.Fatalf("a=%d: symmetry violated at (%d,%d): %g vs %g", a, d, k, lhs, rhs)
				}
			}
		}
	}
}

func TestReducedQMatchesExplicitSum(t *testing.T) {
	// QΓ[d][k] must equal Σ_{j∈Γk} Q[rep_d][j] computed from the full Q.
	const nu = 8
	const p = 0.03
	m, err := ReducedQ(nu, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	qv := mutation.ClassValues(nu, p)
	for d := 0; d <= nu; d++ {
		rep := uint64(1)<<d - 1 // the class representative of Section 5.1
		for k := 0; k <= nu; k++ {
			var want float64
			bits.EnumerateWeight(nu, k, func(j uint64) {
				want += qv[bits.Hamming(rep, j)]
			})
			if got := m.At(d, k); math.Abs(got-want) > 1e-12 {
				t.Fatalf("QΓ[%d][%d] = %.15g, want %.15g", d, k, got, want)
			}
		}
	}
}

func TestReducedQValidation(t *testing.T) {
	if _, err := ReducedQ(5, 2, 0); err == nil {
		t.Error("p = 0 must be rejected")
	}
	if _, err := ReducedQ(-1, 2, 0.1); err == nil {
		t.Error("negative ν must be rejected")
	}
	if _, err := ReducedQ(MaxChainLen+1, 2, 0.1); err == nil {
		t.Error("oversized ν must be rejected")
	}
	if _, err := ReducedQ(5, 1, 0.1); err == nil {
		t.Error("a one-letter alphabet must be rejected")
	}
	if _, err := ReducedQ(5, 4, 0.8); err == nil {
		t.Error("p > 3/4 must be rejected for four letters")
	}
	if _, err := ReducedQ(5, 4, 0.75); err != nil {
		t.Errorf("p = 3/4 is the four-letter uniform limit: %v", err)
	}
}

// TestErrorClassVectorsClosedUnderW is Lemma 2: W maps error-class
// vectors to error-class vectors.
func TestErrorClassVectorsClosedUnderW(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 2 + int(r.Uint64n(7))
		p := 0.01 + 0.3*r.Float64()
		phi := randPhi(r, nu)
		l, err := landscape.NewErrorClass(phi)
		if err != nil {
			return false
		}
		q := mutation.MustUniform(nu, p)
		op, err := core.NewFmmpOperator(q, l, core.Right, nil)
		if err != nil {
			return false
		}
		// Random error-class vector.
		cls := randPhi(r, nu)
		v := make([]float64, q.Dim())
		for i := range v {
			v[i] = cls[bits.Weight(uint64(i))]
		}
		w := make([]float64, q.Dim())
		op.Apply(w, v)
		// All entries within a class must coincide.
		seen := make([]float64, nu+1)
		init := make([]bool, nu+1)
		for i, x := range w {
			k := bits.Weight(uint64(i))
			if !init[k] {
				seen[k], init[k] = x, true
			} else if math.Abs(x-seen[k]) > 1e-10*(1+math.Abs(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReductionMatchesFullSolve(t *testing.T) {
	// The headline claim of Section 5.1: the (ν+1)×(ν+1) solve reproduces
	// the full N×N dominant eigenpair exactly.
	r := rng.New(7)
	for _, nu := range []int{4, 8, 12} {
		p := 0.01 + 0.02*r.Float64()
		phi := randPhi(r, nu)
		l, err := landscape.NewErrorClass(phi)
		if err != nil {
			t.Fatal(err)
		}
		q := mutation.MustUniform(nu, p)

		// Full solve via Pi(Fmmp).
		op, _ := core.NewFmmpOperator(q, l, core.Right, nil)
		full, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-13, Start: core.FitnessStart(l)})
		if err != nil {
			t.Fatal(err)
		}
		fullX := vec.Clone(full.Vector)
		if err := core.Concentrations(fullX); err != nil {
			t.Fatal(err)
		}
		fullGamma, err := core.ClassConcentrations(nu, fullX)
		if err != nil {
			t.Fatal(err)
		}

		// Reduced solve.
		red, err := New(phi, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := red.Solve()
		if err != nil {
			t.Fatal(err)
		}

		if math.Abs(res.Lambda-full.Lambda) > 1e-8*(1+math.Abs(full.Lambda)) {
			t.Errorf("ν=%d: reduced λ = %.15g, full λ = %.15g", nu, res.Lambda, full.Lambda)
		}
		for k := 0; k <= nu; k++ {
			if math.Abs(res.Gamma[k]-fullGamma[k]) > 1e-7 {
				t.Errorf("ν=%d: [Γ%d] reduced %.12g vs full %.12g", nu, k, res.Gamma[k], fullGamma[k])
			}
		}

		// Expanded eigenvector matches the full concentration vector.
		x, err := Expand(res.ClassVector)
		if err != nil {
			t.Fatal(err)
		}
		if d := vec.DistInf(x, fullX); d > 1e-8 {
			t.Errorf("ν=%d: expanded eigenvector deviates by %g", nu, d)
		}
	}
}

func TestReductionSinglePeakThreshold(t *testing.T) {
	// Below the error threshold the master class dominates; above it the
	// distribution is uniform and [Γk] → C(ν,k)/N.
	const nu = 20
	l, _ := landscape.NewSinglePeak(nu, 2, 1)

	solve := func(p float64) []float64 {
		red, err := fromLandscape(l, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := red.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return res.Gamma
	}

	ordered := solve(0.005)
	if ordered[0] < 0.5 {
		t.Errorf("p=0.005: [Γ0] = %g; expected master-class dominance", ordered[0])
	}
	random := solve(0.08) // beyond pmax ≈ 0.035 for ν=20, f0/f1=2
	for k := 0; k <= nu; k++ {
		want := bits.BinomialFloat(nu, k) / math.Pow(2, nu)
		if math.Abs(random[k]-want) > 1e-3 {
			t.Errorf("p=0.08: [Γ%d] = %g, want ≈ uniform %g", k, random[k], want)
		}
	}
}

func TestRescaleToGamma(t *testing.T) {
	// Uniform representative concentrations ⇒ [Γk] = C(ν,k)/2^ν.
	const nu = 6
	v := make([]float64, nu+1)
	for i := range v {
		v[i] = 1.0 / float64(nu+1)
	}
	g := rescaleToGamma(v)
	var sum float64
	for k := range g {
		want := bits.BinomialFloat(nu, k) / 64
		if math.Abs(g[k]-want) > 1e-14 {
			t.Errorf("[Γ%d] = %g, want %g", k, g[k], want)
		}
		sum += g[k]
	}
	if math.Abs(sum-1) > 1e-14 {
		t.Errorf("Σ[Γk] = %g", sum)
	}
}

func TestVeryLongChains(t *testing.T) {
	// ν = 500: far beyond any 2^ν method; the reduction must still work
	// and produce an ordered distribution at p well below the threshold
	// p_max ≈ ln(2)/ν ≈ 1.39e-3, and the uniform one above it.
	const nu = 500
	phi := make([]float64, nu+1)
	phi[0] = 2
	for k := 1; k <= nu; k++ {
		phi[k] = 1
	}
	red, err := New(phi, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	res, err := red.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma[0] < 0.3 {
		t.Errorf("[Γ0] = %g; expected ordered distribution at p well below threshold", res.Gamma[0])
	}
	// λ ≈ f0·(1−p)^ν = 2·e^{−νp} in the ordered regime (perturbative).
	wantLam := 2 * math.Pow(1-0.0005, nu)
	if math.Abs(res.Lambda-wantLam) > 0.05 {
		t.Errorf("λ = %g, want ≈ %g", res.Lambda, wantLam)
	}
	var sum float64
	for _, g := range res.Gamma {
		sum += g
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σ[Γk] = %g", sum)
	}

	// Above the threshold: the distribution collapses to the binomial
	// profile of the uniform state.
	redHi, err := New(phi, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	resHi, err := redHi.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resHi.Gamma[0] > 1e-10 {
		t.Errorf("above threshold [Γ0] = %g; expected vanishing master class", resHi.Gamma[0])
	}
}

func TestFromLandscapeRejectsUnstructured(t *testing.T) {
	l, _ := landscape.NewRandom(6, 5, 1, 1)
	if _, err := fromLandscape(l, 0.01); err == nil {
		t.Error("random landscape must be rejected")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0.01); err == nil {
		t.Error("empty ϕ must be rejected")
	}
	if _, err := New([]float64{1, -1}, 0.01); err == nil {
		t.Error("negative ϕ must be rejected")
	}
	if _, err := New([]float64{1, 1}, 0.7); err == nil {
		t.Error("invalid p must be rejected")
	}
}

func TestExpandValidation(t *testing.T) {
	if _, err := Expand(nil); err == nil {
		t.Error("empty class vector must be rejected")
	}
	if _, err := Expand(make([]float64, MaxExpandChainLen+2)); err == nil {
		t.Error("oversized expansion must be rejected")
	}
	for name, v := range map[string][]float64{
		"zero":     make([]float64, 5),
		"NaN":      {0.5, math.NaN(), 0.25, 0.25},
		"+Inf":     {0.5, math.Inf(1), 0.25},
		"negative": {0.5, 0.75, -0.25},
		"overflow": {math.MaxFloat64, math.MaxFloat64},
	} {
		if x, err := Expand(v); err == nil {
			t.Errorf("%s class vector %v expanded to %d entries; want an error", name, v, len(x))
		}
	}
}

// expandReference is Expand's oracle: the per-element fill
// x[i] = vΓ_{w(i)} followed by vec.Normalize1, as Expand computed it
// before its tiled fill.
func expandReference(classVector []float64) []float64 {
	x := make([]float64, bits.SpaceSize(len(classVector)-1))
	for i := range x {
		x[i] = classVector[bits.Weight(uint64(i))]
	}
	vec.Normalize1(x)
	return x
}

// TestExpandBitIdenticalToReference: Expand reproduces its oracle bit for
// bit at every ν from 0 (N < 4, where Norm1 is all tail) through the
// one-tile fill at ν ≤ tileBits to ν = 22's 1024 output tiles, at every
// kernel tier. Each ν gets two random positive class vectors: one whose entries
// are within a factor 3 of each other, so every addition of the sum rounds,
// and one spanning 300 decades, with an entry of 1e-300.
func TestExpandBitIdenticalToReference(t *testing.T) {
	was := vec.SetTier(vec.TierAVX512)
	defer vec.SetTier(was)
	r := rng.New(67)
	for nu := 0; nu <= 22; nu++ {
		for _, wide := range []bool{false, true} {
			v := make([]float64, nu+1)
			for k := range v {
				v[k] = 0.5 + r.Float64()
				if wide {
					v[k] *= math.Pow(10, -300*r.Float64())
				}
			}
			if wide {
				v[r.Uint64n(uint64(nu+1))] = 1e-300
			}
			expandAcrossTiers(t, nu, v)
		}
	}
}

// expandAcrossTiers compares Expand(v) with expandReference(v) bit for bit
// at every kernel tier.
func expandAcrossTiers(t *testing.T, nu int, v []float64) {
	t.Helper()
	for _, tier := range vec.Tiers() {
		vec.SetTier(tier)
		want := expandReference(v)
		got, err := Expand(v)
		if err != nil {
			t.Fatalf("ν=%d %v: %v", nu, tier, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ν=%d %v: %d entries, want %d", nu, tier, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("ν=%d %v: x[%d] = %v, reference %v", nu, tier, i, got[i], want[i])
			}
		}
	}
}

// classMeansReference is ClassMeans's oracle: the per-element sums
// Σ_{w(i)=k} xᵢ in index order, each divided by C(ν,k).
func classMeansReference(x []float64) []float64 {
	nu := bits.Weight(uint64(len(x) - 1))
	means := make([]float64, nu+1)
	for i, v := range x {
		means[bits.Weight(uint64(i))] += v
	}
	for k := range means {
		means[k] /= bits.BinomialFloat(nu, k)
	}
	return means
}

// TestClassMeansBitIdenticalToReference: ClassMeans reproduces its oracle
// bit for bit from ν = 0 to ν = 20, on a
// random positive vector whose entries are within a factor 3 of each
// other, so every addition of a class sum rounds.
func TestClassMeansBitIdenticalToReference(t *testing.T) {
	r := rng.New(71)
	for _, nu := range []int{0, 1, 4, 12, 13, 20} {
		x := make([]float64, 1<<nu)
		for i := range x {
			x[i] = 0.5 + r.Float64()
		}
		wantMeans := classMeansReference(x)
		got, err := ClassMeans(x)
		if err != nil {
			t.Fatalf("ν=%d: %v", nu, err)
		}
		if len(got) != nu+1 {
			t.Fatalf("ν=%d: %d class means, want %d", nu, len(got), nu+1)
		}
		for k := range wantMeans {
			if math.Float64bits(got[k]) != math.Float64bits(wantMeans[k]) {
				t.Errorf("ν=%d: mean[%d] = %v, reference %v", nu, k, got[k], wantMeans[k])
			}
		}
	}
}

// TestClassMeansInvertsExpand: the class means of an expanded class vector
// are that vector scaled by Expand's 1/S, so a class-function input comes
// back as itself up to that scale and its round-off.
func TestClassMeansInvertsExpand(t *testing.T) {
	v := []float64{5, 1.5, 1.25, 1, 0.75, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	x, err := Expand(v)
	if err != nil {
		t.Fatal(err)
	}
	means, err := ClassMeans(x)
	if err != nil {
		t.Fatal(err)
	}
	scale := means[0] / v[0]
	for k := range v {
		if got := means[k] / scale; math.Abs(got-v[k]) > 1e-12*v[k] {
			t.Errorf("mean[%d]/scale = %v, want %v", k, got, v[k])
		}
	}
}

func TestClassMeansValidation(t *testing.T) {
	for _, n := range []int{0, 3, 6} {
		if _, err := ClassMeans(make([]float64, n)); err == nil {
			t.Errorf("length %d must be rejected", n)
		}
	}
}

// TestExpandAllocations: Expand builds its tiles inside the output, so the
// output is its one allocation, at any ν.
func TestExpandAllocations(t *testing.T) {
	for _, nu := range []int{1, 8, 16} {
		v := make([]float64, nu+1)
		for k := range v {
			v[k] = 1 / float64(k+1)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = Expand(v) }); allocs != 1 {
			t.Errorf("ν=%d: Expand allocates %v objects per call, want 1", nu, allocs)
		}
	}
}

// BenchmarkExpand times Expand on a fixed class vector at the ν of
// mixed-routes' class units.
func BenchmarkExpand(b *testing.B) {
	for _, nu := range []int{12, 16, 18, 20, 22} {
		v := make([]float64, nu+1)
		for k := range v {
			v[k] = math.Pow(0.3, float64(k))
		}
		b.Run(fmt.Sprintf("nu=%d", nu), func(b *testing.B) {
			for range b.N {
				if _, err := Expand(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassMeans times ClassMeans on an Eq. 13-like diagonal at the
// ν of the solve-nu20 workload's class-projected starts.
func BenchmarkClassMeans(b *testing.B) {
	for _, nu := range []int{16, 20} {
		r := rng.New(5)
		x := make([]float64, 1<<nu)
		for i := range x {
			x[i] = 0.5 + r.Float64()
		}
		x[0] = 5
		b.Run(fmt.Sprintf("nu=%d", nu), func(b *testing.B) {
			for range b.N {
				if _, err := ClassMeans(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMatrixAccessorsReturnCopies(t *testing.T) {
	red, err := New([]float64{2, 1, 1}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m := red.Matrix()
	m.Set(0, 0, 999)
	if red.Matrix().At(0, 0) == 999 {
		t.Error("Matrix() must return a copy")
	}
}

// fromLandscape builds the reduction for a class-based landscape and
// rejects a landscape without class structure, as the facade and the
// harness sweeps do before they call New.
func fromLandscape(l landscape.Landscape, p float64) (*Reduction, error) {
	phi, ok := landscape.ClassBased(l)
	if !ok {
		return nil, fmt.Errorf("errorclass: landscape %T is not error-class structured", l)
	}
	return New(phi, p)
}

// rescaleToGamma converts a reduced eigenvector vΓ into cumulative class
// concentrations [Γ_k] = C(ν,k)·vΓ_k / Σ_j C(ν,j)·vΓ_j, the paper's
// representative-form rescaling that Solve's similarity transform replaces.
func rescaleToGamma(classVector []float64) []float64 {
	nu := len(classVector) - 1
	gamma := make([]float64, nu+1)
	var denom float64
	for k, v := range classVector {
		gamma[k] = bits.BinomialFloat(nu, k) * v
		denom += gamma[k]
	}
	for k := range gamma {
		gamma[k] /= denom
	}
	return gamma
}
