package main

// The per-layer probes of the traced run. This is the only file that calls
// into repro/internal/..., so a rename of an internal API touches it alone.
// Each probe calls one layer directly, on the inputs of the workload being
// run (probeSpec), and reports medians of repeated calls.

import (
	"fmt"
	"math"
	"sync"
	"time"

	qs "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/errorclass"
	"repro/internal/harness"
	"repro/internal/kron"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// probeSpec fixes a workload's probe inputs: the chain length, error rate and
// landscape its units run on, and the worker count of its operators.
type probeSpec struct {
	nu       int
	p        float64
	peak     bool // single peak f₀ = 2, fᵢ = 1; otherwise Eq. 13 random (c = 5, σ = 1)
	landSeed uint64
	workers  int
}

// landscapes returns the probe landscape twice: for the internal layers and
// for the facade.
func (ps probeSpec) landscapes() (landscape.Landscape, qs.Landscape, error) {
	if ps.peak {
		l, err := landscape.NewSinglePeak(ps.nu, 2, 1)
		if err != nil {
			return nil, qs.Landscape{}, err
		}
		pub, err := qs.SinglePeak(ps.nu, 2, 1)
		return l, pub, err
	}
	l, err := landscape.NewRandom(ps.nu, 5, 1, ps.landSeed)
	if err != nil {
		return nil, qs.Landscape{}, err
	}
	pub, err := qs.RandomLandscape(ps.nu, 5, 1, ps.landSeed)
	return l, pub, err
}

// device returns the device the workload's operators run on: nil (serial)
// for one worker.
func (ps probeSpec) device() *device.Device {
	if ps.workers > 1 {
		return device.New(ps.workers)
	}
	return nil
}

// probeResult holds the per-layer metrics and the outcomes of the traced
// run's extra output checks.
type probeResult struct {
	values map[string]float64
	checks []error
}

// sink keeps results of timed calls observable.
var sink float64

// medianSeconds times reps calls of f, each after an untimed prep, and
// returns the median in seconds.
func medianSeconds(reps int, prep, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// testVector returns a deterministic positive vector of length n.
func testVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + 0.5*math.Sin(float64(3*i+1))
	}
	return v
}

// runProbes runs every per-layer probe of the traced run. sw is the last
// sweep unit of the closed loop, rerun here on one worker; nil for workloads
// without sweeps.
func runProbes(pl plan, sw *sweepRun, sc scope, small bool) (*probeResult, error) {
	pr := &probeResult{values: map[string]float64{}}
	probes := []struct {
		name string
		run  func() error
	}{
		{"mutation", func() error { return probeMutation(pr, pl.probe, small) }},
		{"device", func() error { return probeDevice(pr, pl.probe) }},
		{"core", func() error { return probeCore(pr, pl.probe) }},
		{"batch", func() error { return probeBatch(pr, small) }},
		{"errorclass", func() error { return probeErrorClass(pr, small) }},
		{"kron", func() error { return probeKron(pr, small) }},
		{"sweep_rerun", func() error { return probeSweepRerun(pr, sw) }},
		{"obs", func() error { return probeSpanOverhead(pr, pl.warm) }},
	}
	for _, p := range probes {
		end := sc.span("probe." + p.name)
		err := p.run()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return pr, nil
}

// probeMutation times the butterfly kernels at the workload's chain length:
// serial and on two device workers, the Q-only shift-invert of
// InverseIterationQ, and the asymmetric per-site kernel at ν = 14. The
// GFLOP/s and GB/s figures are computed from 3·N·ν flops and the one-pass
// lower bound of 16·N bytes, not measured. The triad is the benchmark's own
// two-goroutine a = b + s·c on three N-element arrays; at these sizes all
// three arrays fit in the last-level cache, so it is a cache bandwidth.
func probeMutation(pr *probeResult, ps probeSpec, small bool) error {
	q, err := mutation.NewUniform(ps.nu, ps.p)
	if err != nil {
		return err
	}
	n := q.Dim()
	src := testVector(n)
	v := device.AllocVector(n)
	prep := func() { copy(v, src) }
	dev := device.New(solverWorkers)
	apply := medianSeconds(50, prep, func() { q.Apply(v) })
	applyDev := medianSeconds(50, prep, func() { q.ApplyDevice(dev, v) })
	var siErr error
	si := medianSeconds(50, prep, func() {
		if err := q.ApplyShiftInvert(v, 2); err != nil {
			siErr = err
		}
	})
	if siErr != nil {
		return siErr
	}

	genNu := 14
	if small {
		genNu = 8
	}
	factors := make([]mutation.Factor2, genNu)
	for k := range factors {
		stay0, stay1 := 0.98+0.0005*float64(k), 0.975+0.001*float64(k)
		factors[k] = mutation.Factor2{A: stay0, B: 1 - stay1, C: 1 - stay0, D: stay1}
	}
	g, err := mutation.NewPerSite(factors)
	if err != nil {
		return err
	}
	gsrc := testVector(g.Dim())
	gv := device.AllocVector(g.Dim())
	general := medianSeconds(50, func() { copy(gv, gsrc) }, func() { g.Apply(gv) })

	pr.values["mutation.apply_s"] = apply
	pr.values["mutation.apply_dev_s"] = applyDev
	pr.values["mutation.apply_dev_speedup"] = apply / applyDev
	pr.values["mutation.shift_invert_s"] = si
	pr.values["mutation.apply_general_s"] = general
	pr.values["mutation.gflops_computed"] = 3 * float64(n) * float64(ps.nu) / applyDev / 1e9
	pr.values["mutation.gbps_min_traffic"] = 16 * float64(n) / applyDev / 1e9
	pr.values["mutation.triad_gbps"] = triadGBps(n)
	return nil
}

// triadGBps times a = b + s·c split over two goroutines and returns the
// median rate counting 24 bytes per element.
func triadGBps(n int) float64 {
	a, b, c := make([]float64, n), testVector(n), testVector(n)
	const s = 1.5
	run := func() {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			lo, hi := w*n/2, (w+1)*n/2
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + s*cc[i]
				}
			}()
		}
		wg.Wait()
	}
	return 24 * float64(n) / medianSeconds(50, nil, run) / 1e9
}

// probeDevice times one power iteration's BLAS-1 sequence (AXPY, Dot,
// ResidualNorm2, Norm2, Scale) on two workers and on one, and an empty
// LaunchRange over N on two workers.
func probeDevice(pr *probeResult, ps probeSpec) error {
	n := 1 << ps.nu
	x := device.AllocVector(n)
	w := device.AllocVector(n)
	src := testVector(n)
	copy(x, src)
	prep := func() { copy(w, src) }
	seq := func(d *device.Device) func() {
		return func() {
			d.AXPY(-0.1, x, w)
			lam := d.Dot(x, w)
			r := d.ResidualNorm2(w, x, lam)
			nrm := d.Norm2(w)
			d.Scale(w, 1/nrm)
			sink += r
		}
	}
	dev := device.New(solverWorkers)
	pr.values["device.blas1_iter_s"] = medianSeconds(50, prep, seq(dev))
	pr.values["device.blas1_iter_serial_s"] = medianSeconds(50, prep, seq(device.Serial()))
	pr.values["device.launch_s"] = medianSeconds(200, nil, func() { dev.LaunchRange(n, func(lo, hi int) {}) })
	return nil
}

// countingOp forwards every call to op unchanged, counting the applications
// and the time spent in them.
type countingOp struct {
	op      core.Operator
	applies int
	busy    time.Duration
}

func (c *countingOp) Dim() int { return c.op.Dim() }

func (c *countingOp) Apply(dst, src []float64) {
	t0 := time.Now()
	c.op.Apply(dst, src)
	c.busy += time.Since(t0)
	c.applies++
}

// powerOptions are the options Model.Solve passes to core.PowerIteration for
// MethodFmmp at the default tolerance.
func powerOptions(q *mutation.Process, l landscape.Landscape, dev *device.Device) core.PowerOptions {
	return core.PowerOptions{
		Tol: core.DefaultTolerance(l), MaxIter: 500000,
		Start: core.FitnessStart(l), Dev: dev,
		Shift: core.ConservativeShift(q, l),
	}
}

// probeCore times the operator layer, the eigensolve and the facade around
// it, the gap probe, the per-point setup of a sweep and the landscape
// materialization, all on the workload's inputs.
func probeCore(pr *probeResult, ps probeSpec) error {
	l, pub, err := ps.landscapes()
	if err != nil {
		return err
	}
	q, err := mutation.NewUniform(ps.nu, ps.p)
	if err != nil {
		return err
	}
	dev := ps.device()
	op, err := core.NewFmmpOperator(q, l, core.Right, dev)
	if err != nil {
		return err
	}
	n := q.Dim()
	src := testVector(n)
	v := device.AllocVector(n)
	w := device.AllocVector(n)
	opApply := medianSeconds(50, nil, func() { op.Apply(w, src) })
	bare := medianSeconds(50, func() { copy(v, src) }, func() {
		if dev != nil {
			q.ApplyDevice(dev, v)
		} else {
			q.Apply(v)
		}
	})
	pr.values["core.op_apply_s"] = opApply
	pr.values["core.op_fitness_share"] = (opApply - bare) / opApply

	// The eigensolve through the counting wrapper, and the facade solve of
	// the same problem; their difference is what the facade adds.
	var solve, share []float64
	iters := 0
	for i := 0; i < 3; i++ {
		c := &countingOp{op: op}
		t0 := time.Now()
		res, err := core.PowerIteration(c, powerOptions(q, l, dev))
		total := time.Since(t0)
		if err != nil {
			return err
		}
		solve = append(solve, total.Seconds())
		share = append(share, c.busy.Seconds()/total.Seconds())
		iters = res.Iterations
	}
	var facade []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		mut, err := qs.UniformMutation(ps.nu, ps.p)
		if err != nil {
			return err
		}
		m, err := qs.New(mut, pub, qs.WithMethod(qs.MethodFmmp), qs.WithWorkers(ps.workers))
		if err != nil {
			return err
		}
		if _, err := m.Solve(); err != nil {
			return err
		}
		facade = append(facade, time.Since(t0).Seconds())
	}
	pr.values["core.matvec_share"] = median(share)
	pr.values["core.iters_per_solve"] = float64(iters)
	pr.values["quasispecies.post_s"] = median(facade) - median(solve)

	opS, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
	if err != nil {
		return err
	}
	work := core.NewKrylovWork(n)
	var gapErr error
	pr.values["core.probe_s"] = medianSeconds(3, nil, func() {
		t0, t1, err := core.RitzGap(opS, 24, nil, work)
		if err != nil {
			gapErr = err
		}
		sink += t0 - t1
	})
	if gapErr != nil {
		return gapErr
	}

	var setupErr error
	pr.values["harness.point_setup_s"] = medianSeconds(50, func() { copy(v, src) }, func() {
		if err := pointSetup(op, ps, v); err != nil {
			setupErr = err
		}
	})
	if setupErr != nil {
		return setupErr
	}
	pr.values["landscape.materialize_s"] = medianSeconds(10, nil, func() { sink += landscape.Materialize(l)[0] })
	return nil
}

// pointSetup is the per-point work of a sweep around its eigensolve: the
// point's process and operator, then the concentrations and class
// concentrations of the result x.
func pointSetup(base *core.FmmpOperator, ps probeSpec, x []float64) error {
	qp, err := mutation.NewUniform(ps.nu, ps.p)
	if err != nil {
		return err
	}
	if _, err := base.WithProcess(qp); err != nil {
		return err
	}
	if err := core.Concentrations(x); err != nil {
		return err
	}
	g, err := core.ClassConcentrations(ps.nu, x)
	if err != nil {
		return err
	}
	sink += g[0]
	return nil
}

// probeBatch times the sweep-nu12 sweep (256 warm power points over
// [0.2, 0.8]·p_c) through the batch scheduler on one and two workers, in
// three alternating pairs.
func probeBatch(pr *probeResult, small bool) error {
	nu, points := 12, 256
	if small {
		nu, points = 8, 16
	}
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		return err
	}
	pc := singlePeakThreshold(2, nu)
	ps := make([]float64, points)
	for i := range ps {
		ps[i] = (0.2 + 0.6*float64(i)/float64(points-1)) * pc
	}
	q, err := mutation.NewUniform(nu, ps[0])
	if err != nil {
		return err
	}
	wall := map[int][]float64{}
	for i := 0; i < 3; i++ {
		for _, workers := range []int{1, solverWorkers} {
			t0 := time.Now()
			if _, _, err := harness.ThresholdSweepFullOpts(q, l, ps, harness.SweepOptions{Workers: workers, WarmStart: true}); err != nil {
				return err
			}
			wall[workers] = append(wall[workers], time.Since(t0).Seconds())
		}
	}
	pr.values["batch.speedup_w2"] = median(wall[1]) / median(wall[solverWorkers])
	pr.values["harness.point_s"] = median(wall[solverWorkers]) / float64(points)
	return nil
}

// probeErrorClass times the reduced (ν+1)×(ν+1) solve and its 2^ν expansion
// at the largest class chain length of mixed-routes, on a class-dependent
// landscape ϕ(k) = 1 + 2·(1 − k/ν).
func probeErrorClass(pr *probeResult, small bool) error {
	nu := 22
	if small {
		nu = 10
	}
	phi := make([]float64, nu+1)
	for k := range phi {
		phi[k] = 1 + 2*(1-float64(k)/float64(nu))
	}
	p := 0.5 * singlePeakThreshold(3, nu)
	var res *errorclass.Result
	var err error
	pr.values["errorclass.solve_s"] = medianSeconds(20, nil, func() {
		var red *errorclass.Reduction
		if red, err = errorclass.New(phi, p); err == nil {
			res, err = red.Solve()
		}
	})
	if err != nil {
		return err
	}
	pr.values["errorclass.expand_s"] = medianSeconds(5, nil, func() {
		var x []float64
		if x, err = errorclass.Expand(res.ClassVector); err == nil {
			sink += x[0]
		}
	})
	return err
}

// probeKron times the decoupled solve of a four-block Kronecker system of
// 2^10-sequence blocks, as SolveKronecker runs it.
func probeKron(pr *probeResult, small bool) error {
	bits := 10
	if small {
		bits = 6
	}
	factors := make([]kron.Factor, 4)
	for b := range factors {
		q, err := mutation.NewUniform(bits, 0.005+0.004*float64(b))
		if err != nil {
			return err
		}
		f := testVector(1 << bits)
		f[0] = 3
		fl, err := landscape.NewVector(f)
		if err != nil {
			return err
		}
		factors[b] = kron.Factor{Q: q, F: fl}
	}
	var err error
	pr.values["kron.solve_s"] = medianSeconds(10, nil, func() {
		var sys *kron.System
		if sys, err = kron.NewSystem(factors); err == nil {
			_, err = sys.Solve(kron.SolveOptions{MaxIter: 500000, UseShift: true, Workers: 1})
		}
	})
	return err
}

// probeSweepRerun repeats the loop's last sweep unit on one worker through
// the harness, whose statistics give the per-point gears, and checks that the
// curves match the two-worker facade run byte for byte.
func probeSweepRerun(pr *probeResult, sw *sweepRun) error {
	for _, k := range []string{"core.points_power", "core.points_chebyshev", "core.points_shiftinvert", "core.escalations", "core.max_point_matvecs"} {
		pr.values[k] = 0
	}
	if sw == nil {
		return nil
	}
	l, err := landscape.NewSinglePeak(sw.nu, sw.sigma, 1)
	if err != nil {
		return err
	}
	q, err := mutation.NewUniform(sw.nu, sw.ps[0])
	if err != nil {
		return err
	}
	method, err := core.ParseSolveMethod(sw.method)
	if err != nil {
		return err
	}
	pts, st, err := harness.ThresholdSweepFullOpts(q, l, sw.ps, harness.SweepOptions{Workers: 1, WarmStart: true, Method: method})
	if err != nil {
		pr.checks = append(pr.checks, err)
		return nil
	}
	pr.checks = append(pr.checks, sameCurves(sw.points, pts))
	counts := st.MethodCounts()
	pr.values["core.points_power"] = float64(counts[core.SolvePower.String()])
	pr.values["core.points_chebyshev"] = float64(counts[core.SolveChebyshev.String()])
	pr.values["core.points_shiftinvert"] = float64(counts[core.SolveShiftInvert.String()])
	pr.values["core.escalations"] = float64(st.Escalations)
	maxIt := 0
	for _, it := range st.Iterations {
		maxIt = max(maxIt, it)
	}
	pr.values["core.max_point_matvecs"] = float64(maxIt)
	return nil
}

// sameCurves reports whether two sweeps produced bit-identical curves.
func sameCurves(a []qs.ThresholdPoint, b []harness.ThresholdPoint) error {
	if len(a) != len(b) {
		return fmt.Errorf("serial rerun has %d points, the parallel run %d", len(b), len(a))
	}
	for i := range a {
		if math.Float64bits(a[i].P) != math.Float64bits(b[i].P) || len(a[i].Gamma) != len(b[i].Gamma) {
			return fmt.Errorf("point %d differs between the serial rerun and the parallel run", i)
		}
		for k := range a[i].Gamma {
			if math.Float64bits(a[i].Gamma[k]) != math.Float64bits(b[i].Gamma[k]) {
				return fmt.Errorf("Γ_%d at p = %g: serial %.17g, parallel %.17g", k, a[i].P, b[i].Gamma[k], a[i].Gamma[k])
			}
		}
	}
	return nil
}

// probeSpanOverhead times the workload's warm-up unit with the program's
// span profiler recording and without, in three alternating pairs.
func probeSpanOverhead(pr *probeResult, warm unit) error {
	var off, on []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := warm.run(scope{}); err != nil {
			return err
		}
		off = append(off, time.Since(t0).Seconds())
		prof := qs.StartSpanProfile(0)
		t0 = time.Now()
		_, err := warm.run(scope{})
		on = append(on, time.Since(t0).Seconds())
		prof.Stop()
		if err != nil {
			return err
		}
	}
	pr.values["obs.span_overhead_frac"] = median(on)/median(off) - 1
	return nil
}
