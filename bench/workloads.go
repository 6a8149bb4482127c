package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync/atomic"

	qs "repro"
)

// solverWorkers is the worker count of every parallel call: the reference
// host has two CPUs and the benchmark is one closed-loop client, so two
// workers use the host without oversubscribing it.
const solverWorkers = 2

// A workload is a seeded cycle of units. The closed loop runs the cycle in
// order, wrapping around, until the run's time is up and the cycle has been
// covered once.
type workload struct {
	name  string
	why   string
	build func(r *rand.Rand, small bool) (plan, error)
}

// plan is a workload's generated inputs. small selects the reduced sizes of
// the smoke test; metric names and checks are the same at both sizes.
type plan struct {
	cycle []unit
	warm  unit // the set-up's warm-up unit
	probe probeSpec
}

// unit is one request of the closed loop: calls into the root API whose wall
// time is the unit's latency.
type unit struct {
	desc string // the unit's generated inputs, in full precision
	run  func(sc scope) (outcome, error)
}

// outcome is what a unit produced.
type outcome struct {
	route   string       // solver route taken: "fmmp", "reduced" or "kron"
	matvecs int          // eigensolver iterations; -1 where the API reports none
	check   func() error // output check, run after the unit's timing stops
	sweep   *sweepRun    // set by sweep units
}

// sweepRun records a sweep unit's inputs and output, so the traced run can
// repeat it on one worker and compare the curves byte for byte.
type sweepRun struct {
	nu     int
	sigma  float64
	ps     []float64
	method string
	points []qs.ThresholdPoint
}

var workloads = []workload{
	{
		name:  "solve-nu20",
		why:   "Single Fmmp facade solves on 8 MiB vectors with 2 device workers: kernel and BLAS-1 bound; batch scheduler, selector and reduction idle.",
		build: buildSolveNu20,
	},
	{
		name:  "critical-nu17",
		why:   "Warm auto sweeps across the error threshold: gap probe, Chebyshev gear and warm chains, where matvec count moves more than per-matvec speed.",
		build: buildCriticalNu17,
	},
	{
		name:  "sweep-nu12",
		why:   "Many tiny warm power solves per sweep: per-point setup and batch scheduling dominate; parallelism comes from the scheduler, not the device.",
		build: buildSweepNu12,
	},
	{
		name:  "mixed-routes",
		why:   "Seeded mix of class, random, asymmetric and Kronecker problems through Auto: routing and cache-resident sizes; big-nu kernel work bypassed.",
		build: buildMixedRoutes,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// newRand returns the workload's input stream for seed: the same seed gives
// the same inputs, and the workload name keeps the streams of different
// workloads apart.
func newRand(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// stratified draws n values in [lo, hi), one uniform draw in each of n equal
// strata, in stratum order. A cycle built from strata spans the whole range
// whatever the seed, which keeps per-run medians and means steady across
// seeds while every value still comes from the seed.
func stratified(r *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*(float64(i)+r.Float64())/float64(n)
	}
	return v
}

// shuffle puts a cycle in seeded order.
func shuffle(r *rand.Rand, us []unit) {
	r.Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
}

// spreadInts returns n integers spread evenly over lo … hi, in ascending
// order. Chain lengths set a unit's cost to within a factor of two, so they
// are fixed rather than drawn: every seed then ranks the cycle's units the
// same way, and the latency percentiles of a run do not depend on the seed.
func spreadInts(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo+1)/n
	}
	return out
}

// singlePeakThreshold is the first-order error threshold 1 − σ^(−1/ν).
func singlePeakThreshold(sigma float64, nu int) float64 {
	return 1 - math.Pow(sigma, -1/float64(nu))
}

// defaultTolerance is the facade's documented default residual threshold,
// max(1e−12, 64·ε·f_max·√N).
func defaultTolerance(fmax float64, n int) float64 {
	return math.Max(1e-12, 64*2.220446049250313e-16*fmax*math.Sqrt(float64(n)))
}

// ---------------------------------------------------------------------------
// Unit kinds

// solveUnit is one facade solve: build the problem, New, Solve. The check
// holds the solution to Σx = 1, λ within the landscape's fitness bounds
// [fmin, fmax], and the model's own residual within the default tolerance.
func solveUnit(desc string, mut func() (qs.Mutation, error), land func() (qs.Landscape, error), fmin, fmax float64, opts ...qs.Option) unit {
	return unit{desc: desc, run: func(sc scope) (outcome, error) {
		end := sc.span("quasispecies.New")
		m, err := newModel(mut, land, opts)
		end()
		if err != nil {
			return outcome{}, err
		}
		end = sc.span("Model.Solve")
		sol, err := m.Solve()
		end()
		if err != nil {
			return outcome{}, err
		}
		route := "fmmp"
		if sol.Method == qs.MethodReduced {
			route = "reduced"
		}
		return outcome{
			route: route, matvecs: sol.Iterations,
			check: func() error { return checkSolution(m, sol, fmin, fmax) },
		}, nil
	}}
}

func newModel(mut func() (qs.Mutation, error), land func() (qs.Landscape, error), opts []qs.Option) (*qs.Model, error) {
	mu, err := mut()
	if err != nil {
		return nil, err
	}
	l, err := land()
	if err != nil {
		return nil, err
	}
	return qs.New(mu, l, opts...)
}

func checkSolution(m *qs.Model, sol *qs.Solution, fmin, fmax float64) error {
	x := sol.Concentrations
	if len(x) != m.Dim() {
		return fmt.Errorf("solution has %d concentrations, want %d", len(x), m.Dim())
	}
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += v * v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("Σx = %.17g, want 1", sum)
	}
	if !(sol.Lambda >= fmin && sol.Lambda <= fmax) {
		return fmt.Errorf("λ = %g outside the fitness bounds [%g, %g]", sol.Lambda, fmin, fmax)
	}
	r, err := m.Residual(sol.Lambda, x)
	if err != nil {
		return fmt.Errorf("residual: %w", err)
	}
	// The solvers stop on the residual of the unit-2-norm iterate, so the
	// concentration vector's residual is compared after the same scaling.
	if tol := defaultTolerance(fmax, m.Dim()); r/math.Sqrt(sq) > tol*(1+1e-6) {
		return fmt.Errorf("residual %g of %v exceeds the tolerance %g", r/math.Sqrt(sq), sol.Method, tol)
	}
	return nil
}

// sweepUnit is one warm full-space threshold sweep of the single-peak
// landscape (f₀ = σ, fᵢ = 1). Its matvec count is the sum of the per-point
// iteration counts that Progress reports.
func sweepUnit(nu int, sigma float64, ps []float64, method string, workers int) unit {
	desc := fmt.Sprintf("sweep nu=%d sigma=%v method=%q workers=%d ps=%v", nu, sigma, method, workers, ps)
	return unit{desc: desc, run: func(sc scope) (outcome, error) {
		land, err := qs.SinglePeak(nu, sigma, 1)
		if err != nil {
			return outcome{}, err
		}
		var iters atomic.Int64
		opts := qs.SweepOptions{
			Workers: workers, WarmStart: true, Method: method,
			Progress: func(_ int, _ float64, it int, _ bool, _ string) { iters.Add(int64(it)) },
		}
		end := sc.span("ThresholdCurveFullWith")
		pts, err := qs.ThresholdCurveFullWith(land, ps, opts)
		end()
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			route: "fmmp", matvecs: int(iters.Load()),
			check: func() error { return checkSweep(pts) },
			sweep: &sweepRun{nu: nu, sigma: sigma, ps: ps, method: method, points: pts},
		}, nil
	}}
}

// checkSweep holds every point to ΣΓ = 1 and the master class Γ₀ to be
// non-increasing in p (up to rounding on the post-threshold plateau).
func checkSweep(pts []qs.ThresholdPoint) error {
	for i, pt := range pts {
		if err := checkGammaSum(pt.Gamma); err != nil {
			return fmt.Errorf("p = %g: %w", pt.P, err)
		}
		if i > 0 && pt.Gamma[0] > pts[i-1].Gamma[0]*(1+1e-9) {
			return fmt.Errorf("Γ₀ rises from %.17g at p = %g to %.17g at p = %g",
				pts[i-1].Gamma[0], pts[i-1].P, pt.Gamma[0], pt.P)
		}
	}
	return nil
}

func checkGammaSum(gamma []float64) error {
	var s float64
	for _, g := range gamma {
		s += g
	}
	if math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("ΣΓ = %.17g, want 1", s)
	}
	return nil
}

// kronUnit is one SolveKronecker call. The check holds ΣΓ = 1 and the master
// concentration x₀ to (0, 1].
func kronUnit(desc string, blocks []qs.KroneckerBlock) unit {
	return unit{desc: desc, run: func(sc scope) (outcome, error) {
		end := sc.span("SolveKronecker")
		sol, err := qs.SolveKronecker(blocks)
		end()
		if err != nil {
			return outcome{}, err
		}
		return outcome{route: "kron", matvecs: -1, check: func() error {
			if err := checkGammaSum(sol.Gamma()); err != nil {
				return err
			}
			if x0 := sol.MasterConcentration(); !(x0 > 0 && x0 <= 1) {
				return fmt.Errorf("x₀ = %g outside (0, 1]", x0)
			}
			return nil
		}}, nil
	}}
}

// ---------------------------------------------------------------------------
// Workloads

// buildSolveNu20: one Eq. 13 random landscape (c = 5, σ = 1) per seed, and a
// cycle of 16 error rates stratified over [0.005, 0.02].
func buildSolveNu20(r *rand.Rand, small bool) (plan, error) {
	nu := 20
	if small {
		nu = 12
	}
	const c, sigma = 5.0, 1.0
	seed := r.Uint64()
	land, err := qs.RandomLandscape(nu, c, sigma, seed)
	if err != nil {
		return plan{}, err
	}
	landFn := func() (qs.Landscape, error) { return land, nil }
	var pl plan
	for _, p := range stratified(r, 16, 0.005, 0.02) {
		desc := fmt.Sprintf("fmmp nu=%d p=%v random(c=%v,sigma=%v,seed=%d) workers=%d", nu, p, c, sigma, seed, solverWorkers)
		mut := func() (qs.Mutation, error) { return qs.UniformMutation(nu, p) }
		pl.cycle = append(pl.cycle, solveUnit(desc, mut, landFn, sigma/2, c,
			qs.WithMethod(qs.MethodFmmp), qs.WithWorkers(solverWorkers)))
	}
	shuffle(r, pl.cycle)
	pl.warm = pl.cycle[0]
	pl.probe = probeSpec{nu: nu, p: 0.0125, landSeed: seed, workers: solverWorkers}
	return pl, nil
}

// critOffsets are the grid offsets, in grid steps, of the critical sweeps.
// They are fixed because other offsets can fail: at offset 0.628 the chain
// starting at 0.99655·p_c exhausts the shift-invert ladder, and a benchmark
// workload must not fail. These three complete at every seed, since sweeps
// are deterministic.
var critOffsets = []float64{0, 0.25, 0.5}

// buildCriticalNu17: 32-point warm auto sweeps of the single peak (σ = 2) over
// [0.90, 1.08]·p_c, one per grid offset, in seeded order.
func buildCriticalNu17(r *rand.Rand, small bool) (plan, error) {
	nu, points := 17, 32
	if small {
		nu, points = 10, 8
	}
	const sigma = 2.0
	pc := singlePeakThreshold(sigma, nu)
	step := (1.08 - 0.90) / float64(points-1)
	var pl plan
	for _, u := range critOffsets {
		ps := make([]float64, points)
		for i := range ps {
			ps[i] = (0.90 + step*(float64(i)+u)) * pc
		}
		pl.cycle = append(pl.cycle, sweepUnit(nu, sigma, ps, "auto", solverWorkers))
	}
	shuffle(r, pl.cycle)
	// The warm-up is the first chain's first two points, far enough below
	// p_c to be cheap but through the same auto path.
	first := make([]float64, 2)
	for i := range first {
		first[i] = (0.90 + step*float64(i)) * pc
	}
	pl.warm = sweepUnit(nu, sigma, first, "auto", solverWorkers)
	pl.probe = probeSpec{nu: nu, p: 0.9 * pc, peak: true, workers: 1}
	return pl, nil
}

// buildSweepNu12: 256-point warm power sweeps of the single peak (σ = 2) over
// [0.2, 0.8]·p_c, a cycle of 8 stratified sub-step grid offsets.
func buildSweepNu12(r *rand.Rand, small bool) (plan, error) {
	nu, points := 12, 256
	if small {
		nu, points = 8, 16
	}
	const sigma = 2.0
	pc := singlePeakThreshold(sigma, nu)
	step := 0.6 / float64(points-1)
	var pl plan
	for _, u := range stratified(r, 8, 0, 1) {
		ps := make([]float64, points)
		for i := range ps {
			ps[i] = (0.2 + step*(float64(i)+u)) * pc
		}
		pl.cycle = append(pl.cycle, sweepUnit(nu, sigma, ps, "", solverWorkers))
	}
	pl.warm = pl.cycle[0]
	pl.probe = probeSpec{nu: nu, p: 0.5 * pc, peak: true, workers: 1}
	return pl, nil
}

// buildMixedRoutes: a cycle of 80 units in seeded order — 32 class-dependent
// landscapes (ν ∈ [10, 22], Auto → reduced plus 2^ν expansion), 24 Eq. 13
// random landscapes (ν ∈ [12, 16], Auto → Fmmp), 16 asymmetric
// GeneralMutation problems (ν ∈ [12, 14]) and 8 Kronecker systems of four
// 2^10 blocks. Every call is serial. The cost of a random or asymmetric unit
// depends on its drawn landscape, so the cycle is large enough that the
// latency percentiles over its units do not hinge on one or two draws.
func buildMixedRoutes(r *rand.Rand, small bool) (plan, error) {
	const nClass, nRandom, nGeneral, nKron = 32, 24, 16, 8
	classNu, randNu, genNu, kronBits := [2]int{10, 22}, [2]int{12, 16}, [2]int{12, 14}, 10
	if small {
		classNu, randNu, genNu, kronBits = [2]int{6, 10}, [2]int{8, 10}, [2]int{8, 9}, 6
	}
	var classes, randoms, generals, krons []unit
	// Each continuous parameter is stratified on its own and the strata are
	// paired by fixed strides coprime to the count (a Latin hypercube with a
	// fixed design): the seed moves every value within its stratum, so the
	// cycle's mean cost barely depends on the seed.
	classNus := spreadInts(nClass, classNu[0], classNu[1])
	fracs, sigmas, gammas := stratified(r, nClass, 0.2, 0.9), stratified(r, nClass, 2, 4), stratified(r, nClass, 0.5, 2)
	for i, nu := range classNus {
		classes = append(classes, classUnit(nu, fracs[5*i%nClass], sigmas[3*i%nClass], gammas[7*i%nClass]))
	}
	randNus, rates := spreadInts(nRandom, randNu[0], randNu[1]), stratified(r, nRandom, 0.005, 0.02)
	for i, nu := range randNus {
		randoms = append(randoms, randomUnit(nu, rates[5*i%nRandom], r.Uint64()))
	}
	for _, nu := range spreadInts(nGeneral, genNu[0], genNu[1]) {
		generals = append(generals, generalUnit(r, nu))
	}
	for i := 0; i < nKron; i++ {
		krons = append(krons, kronBlocksUnit(r, 4, kronBits))
	}
	var pl plan
	for _, us := range [][]unit{classes, randoms, generals, krons} {
		pl.cycle = append(pl.cycle, us...)
	}
	shuffle(r, pl.cycle)
	pl.warm = compositeUnit([]unit{classes[0], randoms[0], generals[0], krons[0]})
	pl.probe = probeSpec{nu: 14, p: 0.0125, landSeed: 1, workers: 1}
	if small {
		pl.probe.nu = 8
	}
	return pl, nil
}

// classUnit is a Cerf–Dalmau class-dependent landscape
// ϕ(k) = 1 + (σ−1)·(1 − k/ν)^γ at the error rate frac·p_c, p_c = 1 − σ^(−1/ν).
func classUnit(nu int, frac, sigma, gamma float64) unit {
	p := frac * singlePeakThreshold(sigma, nu)
	phi := make([]float64, nu+1)
	for k := range phi {
		phi[k] = 1 + (sigma-1)*math.Pow(1-float64(k)/float64(nu), gamma)
	}
	desc := fmt.Sprintf("class nu=%d p=%v sigma=%v gamma=%v", nu, p, sigma, gamma)
	return solveUnit(desc,
		func() (qs.Mutation, error) { return qs.UniformMutation(nu, p) },
		func() (qs.Landscape, error) { return qs.ClassLandscape(phi) },
		1, sigma)
}

// randomUnit is an Eq. 13 random landscape (c = 5, σ = 1) at error rate p.
func randomUnit(nu int, p float64, seed uint64) unit {
	desc := fmt.Sprintf("random nu=%d p=%v seed=%d", nu, p, seed)
	return solveUnit(desc,
		func() (qs.Mutation, error) { return qs.UniformMutation(nu, p) },
		func() (qs.Landscape, error) { return qs.RandomLandscape(nu, 5, 1, seed) },
		0.5, 5)
}

// generalUnit draws asymmetric per-site factors (a 0 stays 0 with
// probability in [0.980, 0.995], a 1 stays 1 with probability in
// [0.970, 0.995]) on an Eq. 13 random landscape.
func generalUnit(r *rand.Rand, nu int) unit {
	factors := make([]qs.SiteFactor, nu)
	for k := range factors {
		factors[k] = qs.SiteFactor{Stay0: 0.980 + 0.015*r.Float64(), Stay1: 0.970 + 0.025*r.Float64()}
	}
	seed := r.Uint64()
	desc := fmt.Sprintf("general nu=%d seed=%d factors=%v", nu, seed, factors)
	return solveUnit(desc,
		func() (qs.Mutation, error) { return qs.GeneralMutation(factors) },
		func() (qs.Landscape, error) { return qs.RandomLandscape(nu, 5, 1, seed) },
		0.5, 5)
}

// kronBlocksUnit draws g blocks of 2^bits sequences, each with an error rate
// in [0.005, 0.02] and a fitness factor whose master entry lies in [2, 4] and
// whose other entries lie in [0.5, 1.5].
func kronBlocksUnit(r *rand.Rand, g, bits int) unit {
	blocks := make([]qs.KroneckerBlock, g)
	h := fnv.New64a()
	rates := make([]float64, g)
	for b := range blocks {
		f := make([]float64, 1<<bits)
		f[0] = 2 + 2*r.Float64()
		for i := 1; i < len(f); i++ {
			f[i] = 0.5 + r.Float64()
		}
		for _, v := range f {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		rates[b] = 0.005 + 0.015*r.Float64()
		blocks[b] = qs.KroneckerBlock{ChainLen: bits, ErrorRate: rates[b], Fitness: f}
	}
	desc := fmt.Sprintf("kron blocks=%dx2^%d rates=%v fitness_fnv=%x", g, bits, rates, h.Sum64())
	return kronUnit(desc, blocks)
}

// compositeUnit runs units back to back as one; its check runs theirs.
func compositeUnit(us []unit) unit {
	desc := "composite"
	for _, u := range us {
		desc += "; " + u.desc
	}
	return unit{desc: desc, run: func(sc scope) (outcome, error) {
		var checks []func() error
		for _, u := range us {
			o, err := u.run(sc)
			if err != nil {
				return outcome{}, err
			}
			checks = append(checks, o.check)
		}
		return outcome{route: "mixed", matvecs: -1, check: func() error {
			var errs []error
			for _, c := range checks {
				errs = append(errs, c())
			}
			return errors.Join(errs...)
		}}, nil
	}}
}
