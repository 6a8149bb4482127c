package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
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

// serialOperator is the shared-memory W = Q·F every cluster is held to.
func serialOperator(t testing.TB, p float64, l landscape.Landscape) *core.FmmpOperator {
	t.Helper()
	q, err := mutation.NewUniform(l.ChainLen(), p)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePower reports whether two power solves agree bit for bit.
func samePower(a, b core.PowerResult) bool {
	return math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		math.Float64bits(a.Residual) == math.Float64bits(b.Residual) &&
		a.Iterations == b.Iterations && a.Converged == b.Converged &&
		sameBits(a.Vector, b.Vector)
}

func TestNewClusterValidation(t *testing.T) {
	l3, _ := landscape.NewUniform(3, 1)
	if _, err := NewCluster(3, 0.01, l3); err == nil {
		t.Error("non-power-of-two node count must be rejected")
	}
	if _, err := NewCluster(16, 0.01, l3); err == nil {
		t.Error("more nodes than entries must be rejected")
	}
	if _, err := NewCluster(0, 0.01, l3); err == nil {
		t.Error("zero nodes must be rejected")
	}
	for _, p := range []float64{0, -0.1, 0.9, math.NaN()} {
		if _, err := NewCluster(2, p, l3); !errors.Is(err, mutation.ErrInvalidRate) {
			t.Errorf("p = %g: err = %v, want ErrInvalidRate", p, err)
		}
	}
	c, err := NewCluster(8, 0.01, l3)
	if err != nil {
		t.Fatalf("P = N must be accepted: %v", err)
	}
	if c.Dim() != 8 {
		t.Errorf("Dim = %d, want 8", c.Dim())
	}
}

func TestFmmpApplyValidation(t *testing.T) {
	l, _ := landscape.NewUniform(4, 1)
	c, err := NewCluster(2, 0.01, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, lens := range [][2]int{{15, 16}, {16, 15}, {32, 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Apply with lengths %v did not panic", lens)
				}
			}()
			c.Apply(make([]float64, lens[0]), make([]float64, lens[1]))
		}()
	}
}

// TestDistributedFmmpMatchesSerial applies random vectors through clusters
// of every node count, into a fresh dst and in place, and requires the
// serial operator's bits.
func TestDistributedFmmpMatchesSerial(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nu := 3 + int(r.Uint64n(8)) // ν in [3, 10]
		n := 1 << nu
		p := 0.001 + 0.499*r.Float64()
		l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
		if err != nil {
			return false
		}
		x := randVector(r, n)
		want := make([]float64, n)
		serialOperator(t, p, l).Apply(want, x)

		for logP := 0; logP <= min(nu, 4); logP++ {
			c, err := NewCluster(1<<logP, p, l)
			if err != nil {
				return false
			}
			got := make([]float64, n)
			c.Apply(got, x)
			inPlace := append([]float64(nil), x...)
			c.Apply(inPlace, inPlace)
			if !sameBits(got, want) || !sameBits(inPlace, want) {
				t.Logf("ν=%d p=%g P=%d differs from the serial operator", nu, p, 1<<logP)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestClusterBitIdenticalToSerial is the cluster's contract: at every node
// count and every kernel tier the host has, Apply and a whole power solve
// are bit for bit the serial Right-form Fmmp operator's.
func TestClusterBitIdenticalToSerial(t *testing.T) {
	was := vec.SetTier(vec.TierAVX512)
	defer vec.SetTier(was)
	for _, tier := range vec.Tiers() {
		vec.SetTier(tier)
		for _, nu := range []int{4, 9, 12, 16} {
			checkBitIdentical(t, tier, nu)
		}
	}
}

// checkBitIdentical compares clusters of 1…16 nodes with the serial
// operator at chain length nu, on a random and a single-peak landscape.
func checkBitIdentical(t *testing.T, tier vec.Tier, nu int) {
	const p = 0.01
	random, err := landscape.NewRandom(nu, 5, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []landscape.Landscape{random, peak} {
		op := serialOperator(t, p, l)
		x := randVector(rng.New(uint64(nu)), l.Dim())
		want := make([]float64, l.Dim())
		op.Apply(want, x)
		opts := core.PowerOptions{
			Tol:   core.DefaultTolerance(l),
			Shift: core.ConservativeShift(op.Q, l),
			Start: core.FitnessStart(l),
		}
		ref, err := core.PowerIteration(op, opts)
		if err != nil {
			t.Fatal(err)
		}
		// P = 16 at ν = 4 is P = N: every stage is a cross stage.
		for _, nodes := range []int{1, 2, 4, 8, 16} {
			name := fmt.Sprintf("%v/nu%d/%T/P%d", tier, nu, l, nodes)
			c, err := NewCluster(nodes, p, l)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, l.Dim())
			c.Apply(got, x)
			if !sameBits(got, want) {
				t.Errorf("%s: Apply differs from the serial operator", name)
			}
			res, err := core.PowerIteration(c, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !samePower(res, ref) {
				t.Errorf("%s: λ %v r %v in %d iterations, serial λ %v r %v in %d",
					name, res.Lambda, res.Residual, res.Iterations,
					ref.Lambda, ref.Residual, ref.Iterations)
			}
		}
	}
}

func TestCommunicationVolumeExact(t *testing.T) {
	// Every Apply of a solve moves exactly 8·N·log₂P bytes of block
	// traffic in P·log₂P messages, and nothing else is sent.
	const nu = 8
	const n = 1 << nu
	l, err := landscape.NewRandom(nu, 5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		c, err := NewCluster(nodes, 0.01, l)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.PowerIteration(c, core.PowerOptions{Tol: 1e-12, Start: core.FitnessStart(l)})
		if err != nil {
			t.Fatal(err)
		}
		logP := int64(bits.TrailingZeros(uint(nodes)))
		iters := int64(res.Iterations)
		st := c.Stats()
		if want := int64(8*n) * logP; c.ExpectedMatvecBytes() != want {
			t.Errorf("P=%d: ExpectedMatvecBytes %d, want %d", nodes, c.ExpectedMatvecBytes(), want)
		}
		if st.Bytes != iters*c.ExpectedMatvecBytes() {
			t.Errorf("P=%d: %d bytes moved in %d matvecs, want %d", nodes, st.Bytes, iters, iters*c.ExpectedMatvecBytes())
		}
		if want := iters * int64(nodes) * logP; st.Messages != want {
			t.Errorf("P=%d: %d messages, want %d", nodes, st.Messages, want)
		}
		if want := iters * logP; st.CrossStages != want {
			t.Errorf("P=%d: %d cross stages, want %d", nodes, st.CrossStages, want)
		}
		if nodes == 1 && st != (Stats{}) {
			t.Errorf("P=1 cluster communicated: %+v", st)
		}
	}
}

// stepCounter counts the Steps an observer receives.
type stepCounter struct{ steps int }

func (s *stepCounter) Step(int, float64, float64)          { s.steps++ }
func (s *stepCounter) Event(string, int, float64, float64) {}

func TestDistributedSolveErrors(t *testing.T) {
	l, _ := landscape.NewRandom(4, 5, 1, 1)
	c, err := NewCluster(2, 0.01, l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PowerIteration(c, core.PowerOptions{Start: make([]float64, 8)}); err == nil {
		t.Error("a start of the wrong length must be rejected")
	}
	// An exhausted budget is core's typed failure, with the partial result.
	obs := &stepCounter{}
	res, err := core.PowerIteration(c, core.PowerOptions{Tol: 1e-30, MaxIter: 2, Observer: obs})
	var ce *core.ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *core.ConvergenceError", err)
	}
	if ce.Method != core.SolveKindPower || !errors.Is(err, core.ErrNoConvergence) || ce.Iterations != 2 {
		t.Errorf("ConvergenceError %+v, want method %q, ErrNoConvergence, 2 iterations", ce, core.SolveKindPower)
	}
	if res.Iterations != 2 || len(res.Vector) != l.Dim() || res.Lambda <= 0 {
		t.Errorf("partial result %+v, want 2 iterations, a λ and a vector", res)
	}
	if obs.steps != res.Iterations {
		t.Errorf("observer got %d Steps for %d matvecs", obs.steps, res.Iterations)
	}
}

func TestSingleNodeClusterIsSerial(t *testing.T) {
	// P = 1: the whole vector is one node's block, no communication.
	const nu = 6
	l, _ := landscape.NewRandom(nu, 5, 1, 4)
	c, err := NewCluster(1, 0.03, l)
	if err != nil {
		t.Fatal(err)
	}
	x := randVector(rng.New(4), 1<<nu)
	want := make([]float64, 1<<nu)
	serialOperator(t, 0.03, l).Apply(want, x)
	got := make([]float64, 1<<nu)
	c.Apply(got, x)
	if !sameBits(got, want) {
		t.Error("P=1 result differs from serial")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("P=1 cluster communicated: %+v", st)
	}
}

func TestDistributedSolveMatchesSerial(t *testing.T) {
	// The unshifted solve from the uniform start, the options a caller
	// gets by default, is the serial solve's too.
	const nu = 9
	const p = 0.01
	l, err := landscape.NewRandom(nu, 5, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.PowerOptions{Tol: 1e-12}
	ref, err := core.PowerIteration(serialOperator(t, p, l), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 4, 8} {
		c, err := NewCluster(nodes, p, l)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.PowerIteration(c, opts)
		if err != nil {
			t.Fatalf("P=%d: %v", nodes, err)
		}
		if !samePower(res, ref) {
			t.Errorf("P=%d: λ = %.17g in %d iterations, serial %.17g in %d",
				nodes, res.Lambda, res.Iterations, ref.Lambda, ref.Iterations)
		}
		if nodes > 1 && c.Stats().Bytes == 0 {
			t.Errorf("P=%d: no traffic recorded", nodes)
		}
	}
}

func TestDistributedSolveWithShift(t *testing.T) {
	const nu = 8
	const p = 0.01
	l, _ := landscape.NewRandom(nu, 5, 1, 9)
	c, err := NewCluster(4, p, l)
	if err != nil {
		t.Fatal(err)
	}
	start := core.FitnessStart(l)
	plain, err := core.PowerIteration(c, core.PowerOptions{Tol: 1e-11, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	mu := core.ConservativeShift(mutation.MustUniform(nu, p), l)
	shifted, err := core.PowerIteration(c, core.PowerOptions{Tol: 1e-11, Start: start, Shift: mu})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Lambda-shifted.Lambda) > 1e-9 {
		t.Error("shift changed the distributed answer")
	}
	if shifted.Iterations >= plain.Iterations {
		t.Errorf("shift did not reduce distributed iterations: %d vs %d",
			shifted.Iterations, plain.Iterations)
	}
}
