package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

// The warm, self-stopping gap probe: on a warm chain point AdaptiveSolve
// seeds the probe from F^½·Start instead of ritzStart, and every probe stops
// before its next matvec once its top Ritz pair is resolved and the pair's
// residual estimate meets tol. The per-step test (ritzConverged) uses
// Sturm bisection and a backward recurrence in place of the dense Jacobi
// solve; these tests hold it to the Jacobi reference at every step, and the
// sweeps to the fixed-seed, fixed-length probe (AdaptiveOptions.fullProbe).

// checkStopRule runs the k-step probe of op from (seed, weight) without
// stopping and checks ritzConverged at every step where lanczosSteps would
// ask it (2 ≤ m < built) against tridiagEigenpairs: θ₀ and θ₁ to 1e-12
// relative, and the stop decision for tol. It returns the number of steps
// checked and whether any of them stops.
func checkStopRule(t *testing.T, label string, op Operator, seed, weight []float64, k int, tol float64, kw *KrylovWork) (steps int, stops bool) {
	t.Helper()
	p, err := ritzGap(op, k, seed, weight, 0, kw)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for m := 2; m < p.built; m++ {
		alpha, beta := kw.alpha[:m], kw.beta[:m-1]
		vals, y, err := tridiagEigenpairs(alpha, beta)
		if err != nil {
			t.Fatal(err)
		}
		theta0, theta1 := tridiagTop2(alpha, beta)
		if math.Abs(theta0-vals[0]) > 1e-12*math.Abs(vals[0]) || math.Abs(theta1-vals[1]) > 1e-12*math.Abs(vals[1]) {
			t.Errorf("%s, step %d: bisection θ = (%.17g, %.17g), Jacobi (%.17g, %.17g)", label, m, theta0, theta1, vals[0], vals[1])
		}
		est := kw.beta[m-1] * math.Abs(y[m-1])
		want := ritzResolved(vals[0], vals[1]) && est <= tol
		if got := kw.ritzConverged(m, tol); got != want {
			t.Errorf("%s, step %d: stop %v, Jacobi %v (estimate %.6g, recurrence %.6g, tol %.3g)",
				label, m, got, want, est, kw.beta[m-1]*ritzLastComponent(alpha, beta, theta0), tol)
		}
		stops = stops || want
		steps++
	}
	return steps, stops
}

// The probe's seed: a chain head (no State, or State without HavePrev)
// probes from ritzStart even when it has a warm start; a warm chain point
// probes from F^½·Start. Either probe stops at tol, and the solve reports
// exactly that probe's Ritz values and steps.
func TestAdaptiveProbeSeed(t *testing.T) {
	l, pc := singlePeakPC(t, 12, 2)
	tol := DefaultTolerance(l)
	// The warm start is the previous chain point's eigenvector.
	q0 := mutation.MustUniform(12, 0.95*pc)
	opR0, _ := NewFmmpOperator(q0, l, Right, nil)
	opS0, _ := NewFmmpOperator(q0, l, Symmetric, nil)
	prev, err := AdaptiveSolve(opR0, opS0, AdaptiveOptions{Method: SolveAuto, Tol: tol, PowerShift: ConservativeShift(q0, l)})
	if err != nil {
		t.Fatal(err)
	}
	warm := vec.Clone(prev.Vector)

	q := mutation.MustUniform(12, 0.97*pc)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	kw := NewKrylovWork(opS.Dim())
	for _, c := range []struct {
		name  string
		state *MethodState
	}{
		{"no state", nil},
		{"chain head", &MethodState{}},
		{"warm point", &MethodState{HavePrev: true, PrevLambda: prev.Lambda}},
	} {
		var seed, weight []float64
		if c.state != nil && c.state.HavePrev {
			seed, weight = warm, opS.fsqrt
		}
		p, err := ritzGap(opS, 24, seed, weight, tol, kw)
		if err != nil {
			t.Fatal(err)
		}
		if p.built >= 24 {
			t.Errorf("%s: the probe ran to the cap", c.name)
		}
		for _, method := range []SolveMethod{SolveAuto, SolveChebyshev} {
			var state *MethodState
			if c.state != nil {
				s := *c.state
				state = &s
			}
			res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
				Method: method, Tol: tol, Start: warm, PowerShift: ConservativeShift(q, l), State: state,
			})
			if err != nil {
				t.Fatalf("%s, %v: %v", c.name, method, err)
			}
			if res.ProbeMatVecs != p.built || !sameBits(res.Theta0, p.theta0) || !sameBits(res.Theta1, p.theta1) {
				t.Errorf("%s, %v: probe %d steps, θ = (%v, %v); want %d, (%v, %v)", c.name, method,
					res.ProbeMatVecs, res.Theta0, res.Theta1, p.built, p.theta0, p.theta1)
			}
		}
	}
}

// chainOutcome is one sweep point of runChains.
type chainOutcome struct {
	method                         SolveMethod
	iterations, probe, escalations int
	gamma0                         float64
}

// chainMode selects how runChains solves its points: fullProbe runs the
// fixed-seed, fixed-length probe, and extrapolate seeds each warm point
// through ExtrapolateStart instead of with the previous vector alone.
type chainMode struct{ fullProbe, extrapolate bool }

// runChains solves ps with the auto gear along warm-start chains of
// chainLen points, as harness.ThresholdSweepFullOpts does: each point's
// eigenvector, normalized in place to concentrations, is the next point's
// warm start (extrapolated in place when mode.extrapolate) and aliases the
// power iterate, and the selector state and start history are
// chain-local. With kw non-nil, every point first checks the stop rule of
// a probe from the seed AdaptiveSolve will use (checkStopRule); stops
// counts the probes whose Jacobi reference stops.
func runChains(t *testing.T, l landscape.Landscape, ps []float64, chainLen int, mode chainMode, kw *KrylovWork) (out []chainOutcome, steps, stops int) {
	t.Helper()
	nu := l.ChainLen()
	baseR, err := NewFmmpOperator(mutation.MustUniform(nu, ps[0]), l, Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseS, _ := NewFmmpOperator(mutation.MustUniform(nu, ps[0]), l, Symmetric, nil)
	cold := baseR.FitnessStart()
	tol := DefaultTolerance(l)
	work := NewAdaptiveWork(1 << nu)
	out = make([]chainOutcome, len(ps))
	for lo := 0; lo < len(ps); lo += chainLen {
		var state MethodState
		start := cold
		for i := lo; i < min(lo+chainLen, len(ps)); i++ {
			q := mutation.MustUniform(nu, ps[i])
			opR, _ := baseR.WithProcess(q)
			opS, _ := baseS.WithProcess(q)
			if mode.extrapolate && state.HavePrev {
				work.ExtrapolateStart(start, ps[lo:i], ps[i])
			}
			if kw != nil {
				var seed, weight []float64
				if state.HavePrev {
					seed, weight = start, opS.fsqrt
				}
				n, stop := checkStopRule(t, fmt.Sprintf("point %d (p = %.6g)", i, ps[i]), opS, seed, weight, 24, tol, kw)
				steps += n
				if stop {
					stops++
				}
			}
			res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
				Method: SolveAuto, Tol: tol, PowerShift: ConservativeShift(q, l),
				Start: start, Work: work, State: &state, fullProbe: mode.fullProbe,
			})
			if err != nil {
				t.Fatalf("point %d (p = %.6g): %v", i, ps[i], err)
			}
			if err := Concentrations(res.Vector); err != nil {
				t.Fatal(err)
			}
			gamma, err := ClassConcentrations(nu, res.Vector)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = chainOutcome{res.Method, res.Iterations, res.ProbeMatVecs, res.Escalations, gamma[0]}
			start = res.Vector
		}
	}
	return out, steps, stops
}

// fracGrid returns points values evenly spaced over [lo, hi]·pc, shifted by
// offset grid steps.
func fracGrid(pc, lo, hi float64, points int, offset float64) []float64 {
	ps := make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range ps {
		ps[i] = (lo + step*(float64(i)+offset)) * pc
	}
	return ps
}

// singlePeakPC returns the σ single peak over ν sites (base 1) and its
// threshold p_c = 1 − σ^(−1/ν).
func singlePeakPC(t *testing.T, nu int, sigma float64) (landscape.Landscape, float64) {
	t.Helper()
	l, err := landscape.NewSinglePeak(nu, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l, 1 - math.Pow(sigma, -1/float64(nu))
}

// warmChainCase is one seeded sweep of the warm-chain tests.
type warmChainCase struct {
	name     string
	l        landscape.Landscape
	ps       []float64
	chainLen int
	heavy    bool
	// exact marks the points whose warm start is an exact eigenvector;
	// moved is how many of them move from Chebyshev to power.
	exact func(i int) bool
	moved int
	// flips is how many points change gear when the chain's warm starts are
	// extrapolated; costlier marks the case whose extrapolated sweep costs
	// more matvecs than the plain one (TestExtrapolatedStartsKeepGears).
	flips    int
	costlier bool
}

// skip reports whether this run leaves the case out: the ν ≥ 16 cases, the
// critical-nu17 grids among them, under -short, and everything above
// ν = 12 under the race detector.
func (c warmChainCase) skip() bool {
	return c.heavy && testing.Short() || raceDetector && c.l.ChainLen() > 12
}

// warmChainCases are the seeded sweeps of TestWarmProbeRobustness and
// TestExtrapolatedStartsKeepGears.
func warmChainCases(t *testing.T) []warmChainCase {
	var cases []warmChainCase
	add := func(c warmChainCase) { cases = append(cases, c) }

	l10, pc10 := singlePeakPC(t, 10, 2)
	add(warmChainCase{name: "ν=10 σ=2 over [0.3, 1.1]·p_c", l: l10, ps: fracGrid(pc10, 0.3, 1.1, 24, 0), chainLen: 8})
	l12, pc12 := singlePeakPC(t, 12, 10)
	add(warmChainCase{name: "ν=12 σ=10 over [0.5, 1.1]·p_c", l: l12, ps: fracGrid(pc12, 0.5, 1.1, 24, 0), chainLen: 8})
	l14, pc14 := singlePeakPC(t, 14, 2)
	add(warmChainCase{name: "ν=14 σ=2 over [0.3, 1.1]·p_c", l: l14, ps: fracGrid(pc14, 0.3, 1.1, 32, 0), chainLen: 8, flips: 1})
	add(warmChainCase{name: "ν=14 σ=2 coarse 8-point grid", l: l14, ps: fracGrid(pc14, 0.3, 1.1, 8, 0), chainLen: 8})
	l12b, pc12b := singlePeakPC(t, 12, 2)
	var dup []float64
	for _, p := range fracGrid(pc12b, 0.9, 1.08, 8, 0) {
		dup = append(dup, p, p)
	}
	add(warmChainCase{name: "ν=12 σ=2 duplicate p", l: l12b, ps: dup, chainLen: 8,
		exact: func(i int) bool { return i%2 == 1 }, moved: 5})
	fine := make([]float64, 16)
	for i := range fine {
		fine[i] = (0.98 + 1e-4*float64(i)) * pc12b
	}
	add(warmChainCase{name: "ν=12 σ=2 1e-4·p_c steps", l: l12b, ps: fine, chainLen: 8})
	l3, pc3 := singlePeakPC(t, 3, 2)
	add(warmChainCase{name: "ν=3 σ=2", l: l3, ps: fracGrid(pc3, 0.3, 1.1, 8, 0), chainLen: 8})
	lin, err := landscape.NewLinear(15, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	add(warmChainCase{name: "ν=15 linear", l: lin, ps: fracGrid(1, 0.01, 0.2, 16, 0), chainLen: 8, costlier: true})
	rnd, err := landscape.NewRandom(14, 5, 1, rng.New(23).Uint64())
	if err != nil {
		t.Fatal(err)
	}
	add(warmChainCase{name: "ν=14 Eq. 13 random", l: rnd, ps: fracGrid(1, 0.005, 0.05, 16, 0), chainLen: 8})
	uni, err := landscape.NewUniform(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	add(warmChainCase{name: "ν=12 uniform", l: uni, ps: fracGrid(1, 0.01, 0.2, 16, 0), chainLen: 8,
		exact: func(i int) bool { return i%8 != 0 }, moved: 14})
	l16, pc16 := singlePeakPC(t, 16, 2)
	add(warmChainCase{name: "ν=16 σ=2, one 48-point chain", l: l16, ps: fracGrid(pc16, 0.9, 1.08, 48, 0), chainLen: 48, heavy: true})
	l17, pc17 := singlePeakPC(t, 17, 2)
	for _, off := range []float64{0, 0.25, 0.5} {
		add(warmChainCase{name: fmt.Sprintf("critical-nu17 grid, offset %g", off), l: l17, ps: fracGrid(pc17, 0.9, 1.08, 32, off), chainLen: 8, heavy: true})
	}
	l18, pc18 := singlePeakPC(t, 18, 2)
	add(warmChainCase{name: "ν=18 σ=2, 13 points", l: l18, ps: fracGrid(pc18, 0.9, 1.08, 13, 0), chainLen: 8, heavy: true})

	return cases
}

// Seeded sweeps against the fixed-seed, fixed-length probe the engine ran
// before. Every case crosses or approaches its error threshold, or has a
// warm start that is (nearly) an exact eigenvector. Each sweep runs with no
// escalation, keeps every point's gear, costs no point more matvecs, and
// moves Γ₀ by at most 1e-9; every step of every probe also passes
// checkStopRule. The one measured exception is listed per case: where the
// warm start is an exact eigenvector — every warm point of the uniform
// landscape, the second of two equal p — the warm probe stops after two
// steps with a θ₁ far from λ₁. The gap then looks wide and auto may pick
// power, which finishes from the warm start at once: such points move from
// Chebyshev to power and cost 3 matvecs instead of a full probe and its
// handoff.
func TestWarmProbeRobustness(t *testing.T) {
	for _, c := range warmChainCases(t) {
		if c.skip() {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			kw := NewKrylovWork(c.l.Dim())
			ref, _, _ := runChains(t, c.l, c.ps, c.chainLen, chainMode{fullProbe: true}, nil)
			got, steps, stops := runChains(t, c.l, c.ps, c.chainLen, chainMode{}, kw)
			var refTotal, gotTotal, moved int
			for i := range c.ps {
				r, g := ref[i], got[i]
				refTotal += r.iterations
				gotTotal += g.iterations
				label := fmt.Sprintf("point %d (p = %.6g)", i, c.ps[i])
				if g.escalations != 0 || r.escalations != 0 {
					t.Errorf("%s: %d escalations (full probe %d)", label, g.escalations, r.escalations)
				}
				switch {
				case c.exact != nil && c.exact(i) && r.method == SolveChebyshev && g.method == SolvePower:
					moved++
				case g.method != r.method:
					t.Errorf("%s: %v, full probe %v", label, g.method, r.method)
				}
				if g.iterations > r.iterations {
					t.Errorf("%s: %d matvecs, %d with the full probe", label, g.iterations, r.iterations)
				}
				if d := math.Abs(g.gamma0 - r.gamma0); d > 1e-9 {
					t.Errorf("%s: Γ₀ = %.12g, %.12g with the full probe", label, g.gamma0, r.gamma0)
				}
			}
			if moved != c.moved {
				t.Errorf("%d points moved from Chebyshev to power, measured %d", moved, c.moved)
			}
			t.Logf("%d → %d matvecs (%.0f%%); %d probe steps checked, %d probes stop", refTotal, gotTotal,
				100*float64(gotTotal-refTotal)/float64(refTotal), steps, stops)
		})
	}
}

// Extrapolated warm starts (ExtrapolateStart) against the plain warm start
// the chains ran before, both with the warm probe, on the cases of
// TestWarmProbeRobustness. Each extrapolated sweep runs with no escalation,
// moves Γ₀ by at most 1e-9 and costs no more matvecs in total; every step
// of every probe from an extrapolated seed passes checkStopRule. The
// measured exceptions are listed per case:
//   - ν=14 σ=2: at 0.455·p_c, on the power/Chebyshev boundary, the better
//     start lets the probe stop at 10 steps instead of 24, its θ₁ reads
//     lower, and auto picks power: 27 matvecs instead of Chebyshev's 14.
//   - ν=15 linear: its first steps are 127%, 56% and 36% of p, and the
//     additive landscape's product-form Perron vector is far from
//     quadratic in p over such steps. The extrapolated starts are worse
//     than the plain ones there, and the sweep costs 215 matvecs against
//     199; it may cost at most 10% more.
func TestExtrapolatedStartsKeepGears(t *testing.T) {
	for _, c := range warmChainCases(t) {
		if c.skip() {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			kw := NewKrylovWork(c.l.Dim())
			ref, _, _ := runChains(t, c.l, c.ps, c.chainLen, chainMode{}, nil)
			got, steps, stops := runChains(t, c.l, c.ps, c.chainLen, chainMode{extrapolate: true}, kw)
			var refTotal, gotTotal, flips int
			for i := range c.ps {
				r, g := ref[i], got[i]
				refTotal += r.iterations
				gotTotal += g.iterations
				label := fmt.Sprintf("point %d (p = %.6g)", i, c.ps[i])
				if g.escalations != 0 {
					t.Errorf("%s: %d escalations", label, g.escalations)
				}
				if g.method != r.method {
					flips++
					t.Logf("%s: %v in %d matvecs, plain warm start %v in %d", label, g.method, g.iterations, r.method, r.iterations)
				}
				if d := math.Abs(g.gamma0 - r.gamma0); d > 1e-9 {
					t.Errorf("%s: Γ₀ = %.12g, %.12g from the plain warm start", label, g.gamma0, r.gamma0)
				}
			}
			if flips != c.flips {
				t.Errorf("%d points changed gear, measured %d", flips, c.flips)
			}
			limit := refTotal
			if c.costlier {
				limit += refTotal / 10
			}
			if gotTotal > limit {
				t.Errorf("extrapolated sweep costs %d matvecs, plain %d, limit %d", gotTotal, refTotal, limit)
			}
			t.Logf("%d → %d matvecs (%.0f%%); %d probe steps checked, %d probes stop", refTotal, gotTotal,
				100*float64(gotTotal-refTotal)/float64(refTotal), steps, stops)
		})
	}
}
