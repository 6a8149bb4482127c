package resolution

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

func randDistribution(r *rng.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	vec.Normalize1(x)
	return x
}

func TestCoarsenLevels(t *testing.T) {
	x := []float64{0.1, 0.2, 0.3, 0.4}
	l0, err := Coarsen(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vec.DistInf(l0, x) != 0 {
		t.Error("level 0 must copy")
	}
	l1, _ := Coarsen(x, 1)
	if vec.DistInf(l1, []float64{0.3, 0.7}) > 1e-15 {
		t.Errorf("level 1 = %v", l1)
	}
	l2, _ := Coarsen(x, 2)
	if math.Abs(l2[0]-1) > 1e-15 {
		t.Errorf("level 2 = %v", l2)
	}
}

func TestCoarsenValidation(t *testing.T) {
	if _, err := Coarsen([]float64{1, 2, 3}, 0); err == nil {
		t.Error("non-power-of-two length must be rejected")
	}
	if _, err := Coarsen([]float64{1, 2}, 2); err == nil {
		t.Error("level beyond ν must be rejected")
	}
	if _, err := Coarsen([]float64{1, 2}, -1); err == nil {
		t.Error("negative level must be rejected")
	}
}

func TestPyramidConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(10))
		x := randDistribution(r, 1<<nu)
		pyr, err := pyramid(x)
		if err != nil {
			return false
		}
		if len(pyr) != nu+1 {
			return false
		}
		for level := range pyr {
			direct, err := Coarsen(x, level)
			if err != nil {
				return false
			}
			if vec.DistInf(pyr[level], direct) > 1e-12 {
				return false
			}
			// Mass is conserved at every level.
			if math.Abs(vec.Sum(pyr[level])-1) > 1e-10 {
				return false
			}
		}
		return len(pyr[nu]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMarginalsDirect(t *testing.T) {
	// Point mass at 0b101: marginals are exactly the bits.
	x := make([]float64, 8)
	x[0b101] = 1
	m, err := Marginals(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 1}
	if vec.DistInf(m, want) != 0 {
		t.Errorf("marginals %v, want %v", m, want)
	}
}

func TestWalshMomentsMatchDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 1 + int(r.Uint64n(9))
		x := randDistribution(r, 1<<nu)
		wm, err := WalshMoments(x)
		if err != nil {
			return false
		}
		if math.Abs(wm.Total-1) > 1e-10 {
			return false
		}
		direct, err := Marginals(x)
		if err != nil {
			return false
		}
		if vec.DistInf(wm.P1, direct) > 1e-10 {
			return false
		}
		// Pairwise against direct accumulation.
		for j := 0; j < nu; j++ {
			for k := j + 1; k < nu; k++ {
				var want float64
				for i, v := range x {
					if uint64(i)&(1<<uint(j)) != 0 && uint64(i)&(1<<uint(k)) != 0 {
						want += v
					}
				}
				if math.Abs(wm.P2[j][k]-want) > 1e-10 {
					return false
				}
				if wm.P2[j][k] != wm.P2[k][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCovarianceOfIndependentBitsIsZero(t *testing.T) {
	// Product distribution: bits independent ⇒ covariance ≈ 0.
	const nu = 6
	r := rng.New(3)
	probs := make([]float64, nu)
	for k := range probs {
		probs[k] = r.Float64()
	}
	x := make([]float64, 1<<nu)
	for i := range x {
		p := 1.0
		for k := 0; k < nu; k++ {
			if uint64(i)&(1<<uint(k)) != 0 {
				p *= probs[k]
			} else {
				p *= 1 - probs[k]
			}
		}
		x[i] = p
	}
	wm, err := WalshMoments(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nu; j++ {
		for k := j + 1; k < nu; k++ {
			if c := wm.Covariance(j, k); math.Abs(c) > 1e-12 {
				t.Errorf("Cov(%d,%d) = %g for independent bits", j, k, c)
			}
		}
	}
}

func TestQuasispeciesMarginalsAreSymmetricOnSinglePeak(t *testing.T) {
	// On the single-peak landscape all positions are exchangeable, so all
	// marginals coincide, and below threshold they are ≪ ½.
	const nu = 10
	q := mutation.MustUniform(nu, 0.01)
	l, _ := landscape.NewSinglePeak(nu, 2, 1)
	op, _ := core.NewFmmpOperator(q, l, core.Right, nil)
	res, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-12, Start: core.FitnessStart(l)})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Vector
	if err := core.Concentrations(x); err != nil {
		t.Fatal(err)
	}
	m, err := Marginals(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < nu; k++ {
		if math.Abs(m[k]-m[0]) > 1e-9 {
			t.Errorf("marginal[%d] = %g differs from marginal[0] = %g", k, m[k], m[0])
		}
	}
	if m[0] > 0.1 {
		t.Errorf("below threshold each position should rarely be mutated; P = %g", m[0])
	}
}

func TestTopK(t *testing.T) {
	x := []float64{0.1, 0.5, 0.2, 0.2}
	top := TopK(x, 2)
	if len(top) != 2 || top[0].Sequence != 1 || top[0].Concentration != 0.5 {
		t.Errorf("top = %v", top)
	}
	// Tie at 0.2: lower index first.
	if top[1].Sequence != 2 {
		t.Errorf("tie broken wrongly: %v", top)
	}
	if len(TopK(x, 0)) != 0 {
		t.Error("k = 0 must return nothing")
	}
	if len(TopK(x, 10)) != 4 {
		t.Error("k > N must clamp")
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 << (1 + r.Uint64n(9))
		x := randDistribution(r, n)
		k := 1 + int(r.Uint64n(10))
		top := TopK(x, k)
		if k > n {
			k = n
		}
		if len(top) != k {
			return false
		}
		// Verify descending order and that no excluded value beats the
		// smallest included one.
		for i := 1; i < len(top); i++ {
			if top[i].Concentration > top[i-1].Concentration {
				return false
			}
		}
		included := map[uint64]bool{}
		for _, e := range top {
			included[e.Sequence] = true
		}
		floor := top[len(top)-1].Concentration
		for i, v := range x {
			if !included[uint64(i)] && v > floor {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMarginalsOfErrorClasses(t *testing.T) {
	// Sanity link to the Γ machinery: Σ_k marginal_k = expected number of
	// mutations = Σ_d d·[Γd].
	const nu = 8
	r := rng.New(5)
	x := randDistribution(r, 1<<nu)
	m, _ := Marginals(x)
	var lhs float64
	for _, p := range m {
		lhs += p
	}
	gamma, err := core.ClassConcentrations(nu, x)
	if err != nil {
		t.Fatal(err)
	}
	var rhs float64
	for d, g := range gamma {
		rhs += float64(d) * g
	}
	if math.Abs(lhs-rhs) > 1e-10 {
		t.Errorf("Σ marginals = %g, Σ d·[Γd] = %g", lhs, rhs)
	}
	_ = bits.Weight(0) // anchor: error classes and marginals share the bits substrate
}

// pyramid returns all coarsening levels 0…ν, computed bottom-up so the
// total work is Θ(N) (each level halves the previous one).
func pyramid(x []float64) ([][]float64, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("resolution: length %d is not a power of two", n)
	}
	levels := [][]float64{append([]float64(nil), x...)}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([]float64, len(prev)/2)
		for i := range next {
			next[i] = prev[2*i] + prev[2*i+1]
		}
		levels = append(levels, next)
	}
	return levels, nil
}
