package quasispecies

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mutation"
)

func TestThresholdCurveWithWorkersBitIdentical(t *testing.T) {
	land, err := SinglePeak(25, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]float64, 18)
	for i := range ps {
		ps[i] = 0.002 + 0.005*float64(i)
	}
	ref, err := ThresholdCurve(land, ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SweepOptions{
		{Workers: 2},
		{Workers: 7},
		{Workers: -1},
		{Workers: 3, WarmStart: true},
	} {
		got, err := ThresholdCurveWith(land, ps, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for i := range ref {
			if got[i].P != ref[i].P {
				t.Fatalf("%+v: point %d p mismatch", opts, i)
			}
			for k := range ref[i].Gamma {
				want, have := ref[i].Gamma[k], got[i].Gamma[k]
				if opts.WarmStart {
					// Warm starts change the iterate path; agreement is to
					// solver tolerance, not bit-exact.
					if math.Abs(want-have) > 1e-9 {
						t.Fatalf("%+v: point %d class %d: |Δ| = %g", opts, i, k, math.Abs(want-have))
					}
				} else if want != have {
					t.Fatalf("%+v: point %d class %d: %v vs %v (not bit-identical)", opts, i, k, want, have)
				}
			}
		}
	}
}

func TestLocateErrorThresholdWithWorkers(t *testing.T) {
	land, err := SinglePeak(20, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LocateErrorThreshold(land, 0.001, 0.4, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LocateErrorThresholdWith(land, 0.001, 0.4, 1e-4, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 2e-4 {
		t.Errorf("k-section p_max = %g, bisection %g", got, want)
	}
}

// TestReducedSweepEveryMethodMatchesPower: the class reduction has one
// solver, so a reduced sweep and threshold search succeed under every
// Method and are bit-identical to the power path's, at 1 and 2 workers.
// The chain lengths are those from which a shift-invert (RQI) reduced
// solve returned a negative eigenvector on qs-threshold's default grid.
func TestReducedSweepEveryMethodMatchesPower(t *testing.T) {
	const pMin, pMax, steps = 0.0005, 0.09, 180 // qs-threshold's default grid
	ps := make([]float64, steps)
	for i := range ps {
		ps[i] = pMin + (pMax-pMin)*float64(i)/float64(steps-1)
	}
	for _, nu := range []int{33, 40, 62} {
		land, err := SinglePeak(nu, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ThresholdCurveWith(land, ps, SweepOptions{Method: "power"})
		if err != nil {
			t.Fatalf("ν=%d power: %v", nu, err)
		}
		for _, workers := range []int{1, 2} {
			refLoc, err := LocateErrorThresholdWith(land, pMin, pMax, 1e-6, SweepOptions{Workers: workers, Method: "power"})
			if err != nil {
				t.Fatalf("ν=%d workers=%d power locate: %v", nu, workers, err)
			}
			for _, method := range []string{"", "power", "auto", "chebyshev", "shiftinvert"} {
				opts := SweepOptions{Workers: workers, Method: method}
				tag := fmt.Sprintf("ν=%d workers=%d method=%q", nu, workers, method)
				got, err := ThresholdCurveWith(land, ps, opts)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for i := range ref {
					for k := range ref[i].Gamma {
						if got[i].Gamma[k] != ref[i].Gamma[k] {
							t.Fatalf("%s: p=%g class %d: %v, power %v", tag, ps[i], k, got[i].Gamma[k], ref[i].Gamma[k])
						}
					}
				}
				loc, err := LocateErrorThresholdWith(land, pMin, pMax, 1e-6, opts)
				if err != nil {
					t.Fatalf("%s locate: %v", tag, err)
				}
				if loc != refLoc {
					t.Errorf("%s: located p_max %v, power %v", tag, loc, refLoc)
				}
			}
		}
	}
}

// The Model caches its Fmmp operator: after the first Solve, a Residual
// check must not rebuild the Θ(N) landscape diagonals (satellite of the
// batched-sweep PR; this is the regression guard).
func TestModelReusesOperatorAcrossSolveAndResidual(t *testing.T) {
	mut, _ := UniformMutation(10, 0.01)
	land, _ := SinglePeak(10, 2, 1)
	model, err := New(mut, land, WithMethod(MethodFmmp))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r0, err := model.Residual(sol.Lambda, sol.Concentrations)
	if err != nil {
		t.Fatal(err)
	}
	if r0 > 1e-8 {
		t.Errorf("residual %g too large", r0)
	}
	// Warm the scratch, then require allocation-free steady state.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := model.Residual(sol.Lambda, sol.Concentrations); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Residual allocates %.0f objects per call after warm-up; operator/scratch not cached", allocs)
	}
	// Re-solving must reuse the cached operator and agree exactly.
	sol2, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Lambda != sol.Lambda {
		t.Errorf("re-solve λ = %v, first %v", sol2.Lambda, sol.Lambda)
	}
}

func TestSolveKroneckerWithWorkersMatchesSerial(t *testing.T) {
	blocks := []KroneckerBlock{
		{ChainLen: 4, ErrorRate: 0.01, Fitness: rampFitness(16, 1, 3)},
		{ChainLen: 5, ErrorRate: 0.02, Fitness: rampFitness(32, 1, 2)},
		{ChainLen: 3, ErrorRate: 0.015, Fitness: rampFitness(8, 1, 4)},
	}
	serial, err := SolveKronecker(blocks)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SolveKronecker(blocks, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Lambda() != parallel.Lambda() {
		t.Errorf("parallel λ = %v, serial %v", parallel.Lambda(), serial.Lambda())
	}
	sg, pg := serial.Gamma(), parallel.Gamma()
	for k := range sg {
		if sg[k] != pg[k] {
			t.Errorf("class %d: parallel Γ deviates from serial", k)
		}
	}
}

// TestSolveKroneckerAllCoresWorkers: WithWorkers(n ≤ 0) means all cores for
// SolveKronecker as for New. With GOMAXPROCS pinned to 2 the batch run
// span of the block solves reports 2 workers for n = 0 and n = −1 alike.
func TestSolveKroneckerAllCoresWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	blocks := []KroneckerBlock{
		{ChainLen: 4, ErrorRate: 0.01, Fitness: rampFitness(16, 1, 3)},
		{ChainLen: 5, ErrorRate: 0.02, Fitness: rampFitness(32, 1, 2)},
		{ChainLen: 3, ErrorRate: 0.015, Fitness: rampFitness(8, 1, 4)},
	}
	for _, n := range []int{0, -1, 2, 1} {
		want := 2
		if n == 1 {
			want = 1
		}
		prof := StartSpanProfile(0)
		_, err := SolveKronecker(blocks, WithWorkers(n))
		prof.Stop()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := prof.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Cat  string         `json:"cat"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			t.Fatal(err)
		}
		var got []any
		for _, ev := range tr.TraceEvents {
			if ev.Cat == "batch" && ev.Name == "run" {
				got = append(got, ev.Args["workers"])
			}
		}
		if len(got) != 1 || got[0] != float64(want) {
			t.Errorf("WithWorkers(%d): batch run span workers = %v, want [%d]", n, got, want)
		}
	}
}

func rampFitness(n int, lo, hi float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = hi - (hi-lo)*float64(i)/float64(n-1)
	}
	return f
}

// TestThresholdCurveValidatesGridFirst: an invalid p anywhere in the grid
// fails both sweep routes before any point is solved, with an error that
// wraps mutation.ErrInvalidRate and names the point's index and value.
func TestThresholdCurveValidatesGridFirst(t *testing.T) {
	land, err := SinglePeak(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]func([]float64, SweepOptions) ([]ThresholdPoint, error){
		"reduced": func(ps []float64, o SweepOptions) ([]ThresholdPoint, error) {
			return ThresholdCurveWith(land, ps, o)
		},
		"full": func(ps []float64, o SweepOptions) ([]ThresholdPoint, error) {
			return ThresholdCurveFullWith(land, ps, o)
		},
	}
	for _, bad := range []float64{math.NaN(), 0, -0.01, 0.6, math.Inf(1)} {
		ps := make([]float64, 64)
		for i := range ps {
			ps[i] = 0.005 + 0.0005*float64(i)
		}
		ps[63] = bad
		for name, run := range routes {
			var solved atomic.Int32
			_, err := run(ps, SweepOptions{Workers: 2, WarmStart: true,
				Progress: func(int, float64, int, bool, string) { solved.Add(1) }})
			if !errors.Is(err, mutation.ErrInvalidRate) {
				t.Fatalf("%s p=%v: error %v, want one wrapping ErrInvalidRate", name, bad, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "point 63") || !strings.Contains(msg, fmt.Sprint(bad)) {
				t.Errorf("%s p=%v: error %q does not name point 63 and its value", name, bad, msg)
			}
			if n := solved.Load(); n != 0 {
				t.Errorf("%s p=%v: %d points solved before the grid was rejected", name, bad, n)
			}
		}
	}
}
