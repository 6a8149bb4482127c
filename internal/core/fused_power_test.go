package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/vec"
)

// The power iteration runs each step as one operator application and two
// fused passes (DESIGN.md §5.10). These tests keep the unfused loop — shift
// by AXPY, Dot, residual, Norm2 and a normalize pass per iteration, on an
// operator that scales by F in a pass of its own — as the reference, and
// require the fused loop to reproduce it bit for bit: λ, residual,
// iteration count, iterate, error and the full Observer/Monitor call
// sequence, on every exit path.

// unfusedFmmpOp is the Right-form Fmmp operator with the fitness scale as
// a separate Mul pass ahead of the butterfly.
type unfusedFmmpOp struct {
	q   *mutation.Process
	f   []float64
	dev *device.Device
}

func (op *unfusedFmmpOp) Dim() int { return op.q.Dim() }

func (op *unfusedFmmpOp) Apply(dst, src []float64) {
	op.dev.Mul(dst, src, op.f)
	if op.dev != nil {
		op.q.ApplyDevice(op.dev, dst)
	} else {
		op.q.Apply(dst)
	}
}

// The unfused reference sums in the 4-lane order of vec's reduction
// contract on the serial path too — the order the serial passes share with
// a 1-worker device — and through the device's own reductions otherwise.

// laneSum is Σ f(k) for k < n in the 4-lane order: lane ℓ sums k ≡ ℓ mod 4,
// the lanes combine as ((s0+s1)+s2)+s3, and the tail folds on in index
// order.
func laneSum(n int, f func(k int) float64) float64 {
	var lane [4]float64
	body := n &^ 3
	for k := 0; k < body; k++ {
		lane[k%4] += f(k)
	}
	s := ((lane[0] + lane[1]) + lane[2]) + lane[3]
	for k := body; k < n; k++ {
		s += f(k)
	}
	return s
}

func refDot(dev *device.Device, x, y []float64) float64 {
	if dev != nil {
		return dev.Dot(x, y)
	}
	return laneSum(len(x), func(k int) float64 { return x[k] * y[k] })
}

func refNorm2(dev *device.Device, x []float64) float64 {
	if dev != nil {
		return dev.Norm2(x)
	}
	return vec.NormFromSumSq(laneSum(len(x), func(k int) float64 { return x[k] * x[k] }), nil, x, 0)
}

// refResidual materializes r = w − λx and takes √(r·r) with no range
// check, as pass B does.
func refResidual(dev *device.Device, w, x []float64, lambda float64) float64 {
	r := vec.Clone(w)
	dev.AXPY(-lambda, x, r)
	return math.Sqrt(refDot(dev, r, r))
}

// unfusedPowerIteration is the power loop before the fused step, with the
// span hook left out (it only watches).
func unfusedPowerIteration(op Operator, opts PowerOptions) (PowerResult, error) {
	n := op.Dim()
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-13
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500000
	}
	mu := opts.Shift
	dev := opts.Dev

	var x, w []float64
	if opts.Work != nil {
		x, w = opts.Work.vectors(n)
	} else {
		x = make([]float64, n)
		w = make([]float64, n)
	}
	if opts.Start != nil {
		if len(opts.Start) != n {
			return PowerResult{}, fmt.Errorf("core: start vector length %d, want %d", len(opts.Start), n)
		}
		copy(x, opts.Start)
	} else {
		vec.Fill(x, 1)
	}
	nrm := refNorm2(dev, x)
	if nrm == 0 {
		return PowerResult{}, errors.New("core: start vector is zero")
	}
	dev.Scale(x, 1/nrm)
	if opts.Observer != nil {
		opts.Observer.Event(EventStart, 0, mu, 0)
	}
	done := func(res *PowerResult, event string, iter int, r float64) {
		orientPositive(x)
		res.Vector = x
		if opts.Observer != nil {
			opts.Observer.Event(event, iter, res.Lambda, r)
		}
	}
	res := PowerResult{Vector: x}
	bestResidual := math.Inf(1)
	bestIter := 0
	stalled := 0
	for iter := 1; iter <= maxIter; iter++ {
		op.Apply(w, x)
		if mu != 0 {
			dev.AXPY(-mu, x, w)
		}
		res.Iterations = iter
		lamShifted := refDot(dev, x, w)
		res.Lambda = lamShifted + mu
		r := refResidual(dev, w, x, lamShifted)
		res.Residual = r
		if opts.Observer != nil {
			opts.Observer.Step(iter, res.Lambda, r)
		}
		if r < bestResidual*(1-1e-6) {
			bestResidual = r
			bestIter = iter
			stalled = 0
		} else {
			stalled++
		}
		if opts.Monitor != nil && !opts.Monitor(iter, res.Lambda, r) {
			done(&res, EventAborted, iter, r)
			return res, &ConvergenceError{
				Reason: ErrNoConvergence, Method: SolveKindPower,
				Detail:     fmt.Sprintf("aborted by monitor at iteration %d", iter),
				Iterations: iter, Residual: r, BestResidual: bestResidual,
				SinceImprovement: iter - bestIter, Shift: mu, Tol: tol,
			}
		}
		if r <= tol {
			res.Converged = true
			done(&res, EventConverged, iter, r)
			return res, nil
		}
		if stalled >= powerStallChecks {
			done(&res, EventStagnated, iter, r)
			return res, &ConvergenceError{
				Reason: ErrStagnated, Method: SolveKindPower,
				Iterations: iter, Residual: r, BestResidual: bestResidual,
				SinceImprovement: iter - bestIter, Shift: mu, Tol: tol,
			}
		}
		nrm = refNorm2(dev, w)
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			done(&res, EventBreakdown, iter, r)
			return res, &ConvergenceError{
				Reason: ErrBreakdown, Method: SolveKindPower,
				Detail:     fmt.Sprintf("‖w‖ = %g at step %d", nrm, iter),
				Iterations: iter, Residual: r, BestResidual: bestResidual,
				SinceImprovement: iter - bestIter, Shift: mu, Tol: tol,
			}
		}
		inv := 1 / nrm
		if dev != nil {
			dev.LaunchRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i] = w[i] * inv
				}
			})
		} else {
			for i := range x {
				x[i] = w[i] * inv
			}
		}
	}
	done(&res, EventBudgetExhausted, res.Iterations, res.Residual)
	return res, &ConvergenceError{
		Reason: ErrNoConvergence, Method: SolveKindPower,
		Iterations: res.Iterations, Residual: res.Residual, BestResidual: bestResidual,
		SinceImprovement: res.Iterations - bestIter, Shift: mu, Tol: tol,
	}
}

// callLog records every Observer and Monitor callback of a solve.
type callLog struct{ calls []string }

func (c *callLog) Step(iter int, lambda, residual float64) {
	c.add("step", iter, lambda, residual)
}

func (c *callLog) Event(event string, iter int, lambda, residual float64) {
	c.add(event, iter, lambda, residual)
}

func (c *callLog) add(kind string, iter int, lambda, residual float64) {
	c.calls = append(c.calls, fmt.Sprintf("%s %d %x %x", kind, iter, math.Float64bits(lambda), math.Float64bits(residual)))
}

// breakingOp overflows the operator's output from application `after` on,
// forcing the breakdown exit.
type breakingOp struct {
	Operator
	after, applied int
}

func (b *breakingOp) Apply(dst, src []float64) {
	b.Operator.Apply(dst, src)
	if b.applied++; b.applied >= b.after {
		vec.Fill(dst, math.Inf(1))
	}
}

// exitPath configures one way out of the power loop.
type exitPath struct {
	name  string
	opts  func(*PowerOptions, *callLog)
	wrap  func(Operator) Operator
	check func(error) bool
}

var exitPaths = []exitPath{
	{name: "converged", opts: func(o *PowerOptions, _ *callLog) { o.Tol = 1e-10 },
		check: func(err error) bool { return err == nil }},
	{name: "stagnated", opts: func(o *PowerOptions, _ *callLog) { o.Tol = 1e-30 },
		check: func(err error) bool { return errors.Is(err, ErrStagnated) }},
	{name: "aborted", opts: func(o *PowerOptions, l *callLog) {
		o.Tol = 1e-30
		o.Monitor = func(iter int, lambda, residual float64) bool {
			l.add("monitor", iter, lambda, residual)
			return iter < 7
		}
	}, check: func(err error) bool { return errors.Is(err, ErrNoConvergence) }},
	{name: "budget", opts: func(o *PowerOptions, _ *callLog) { o.Tol = 1e-30; o.MaxIter = 8 },
		check: func(err error) bool { return errors.Is(err, ErrNoConvergence) }},
	{name: "breakdown", opts: func(o *PowerOptions, _ *callLog) { o.Tol = 1e-30 },
		wrap:  func(op Operator) Operator { return &breakingOp{Operator: op, after: 5} },
		check: func(err error) bool { return errors.Is(err, ErrBreakdown) }},
}

// namedProcess is one mutation process of the suite.
type namedProcess struct {
	name string
	q    *mutation.Process
}

// fusedTestProcesses returns the mutation processes of the suite at chain
// length nu: uniform, per-site and grouped (a dense group on the low bits,
// so the fitness scale takes the unfused fallback; and a group after a
// fused run).
func fusedTestProcesses(t *testing.T, r *rng.Source, nu int) []namedProcess {
	t.Helper()
	factors := make([]mutation.Factor2, nu)
	for i := range factors {
		c0, c1 := 0.002+0.02*r.Float64(), 0.002+0.02*r.Float64()
		factors[i] = mutation.Factor2{A: 1 - c0, B: c1, C: c0, D: 1 - c1}
	}
	perSite, err := mutation.NewPerSite(factors)
	if err != nil {
		t.Fatal(err)
	}
	procs := []namedProcess{
		{"uniform", mutation.MustUniform(nu, 0.004+0.01*r.Float64())},
		{"per-site", perSite},
	}
	if nu >= 2 {
		procs = append(procs, namedProcess{"grouped-first", groupedTestProcess(t, r, nu, 0)})
	}
	if nu >= 3 {
		procs = append(procs, namedProcess{"grouped-mid", groupedTestProcess(t, r, nu, 1)})
	}
	return procs
}

// groupedTestProcess puts a 2-bit dense group at bit `at` and single-bit
// near-identity factors elsewhere.
func groupedTestProcess(t *testing.T, r *rng.Source, nu, at int) *mutation.Process {
	t.Helper()
	var ms []*dense.Matrix
	for bit := 0; bit < nu; {
		size := 2
		if bit == at {
			size = 4
		}
		m := dense.NewMatrix(size, size)
		for c := 0; c < size; c++ {
			sum := 0.0
			for i := 0; i < size; i++ {
				v := 0.01 * r.Float64()
				if i == c {
					v = 1
				}
				m.Set(i, c, v)
				sum += v
			}
			for i := 0; i < size; i++ {
				m.Set(i, c, m.At(i, c)/sum)
			}
		}
		ms = append(ms, m)
		bit += size / 2
	}
	q, err := mutation.NewGrouped(ms)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// comparePower requires two solves to agree bit for bit.
func comparePower(t *testing.T, label string, got, want PowerResult, gotErr, wantErr error, gotLog, wantLog *callLog) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if !sameBits(got.Lambda, want.Lambda) || !sameBits(got.Residual, want.Residual) ||
		got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: (λ %v, R %v, %d iters, converged %v), reference (λ %v, R %v, %d iters, converged %v)",
			label, got.Lambda, got.Residual, got.Iterations, got.Converged,
			want.Lambda, want.Residual, want.Iterations, want.Converged)
	}
	if len(got.Vector) != len(want.Vector) {
		t.Fatalf("%s: vector length %d, reference %d", label, len(got.Vector), len(want.Vector))
	}
	for i := range got.Vector {
		if !sameBits(got.Vector[i], want.Vector[i]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", label, i, got.Vector[i], want.Vector[i])
		}
	}
	if fmt.Sprint(gotLog.calls) != fmt.Sprint(wantLog.calls) {
		t.Fatalf("%s: callbacks\n%v\nreference\n%v", label, gotLog.calls, wantLog.calls)
	}
}

func TestFusedPowerIterationBitIdenticalToUnfused(t *testing.T) {
	r := rng.New(1212)
	devs := []struct {
		name string
		dev  *device.Device
	}{
		{"serial", nil},
		{"1-worker", device.New(1)},
		{"2-workers", device.New(2, device.WithGrain(64))},
		{"3-workers", device.New(3, device.WithGrain(64))},
	}
	taken := map[string]int{}
	sizes := []int{1, 2, 11, 12, 13, 16}
	if raceDetector || testing.Short() {
		sizes = []int{1, 2, 11} // still N < B and N > B at the default tile
	}
	for _, nu := range sizes {
		l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		mu := ConservativeShift(mutation.MustUniform(nu, 0.01), l)
		// ν = 16 runs on the serial path and the 3-worker device only, and
		// its converged and stagnated solves end on the budget instead: the
		// loop body is the same, and those exits and devices are covered at
		// the smaller sizes.
		iterCap := 150
		if nu == 16 {
			iterCap = 12
		}
		for _, p := range fusedTestProcesses(t, r, nu) {
			for _, d := range devs {
				if nu == 16 && d.name != "serial" && d.name != "3-workers" {
					continue
				}
				fused, err := NewFmmpOperator(p.q, l, Right, d.dev)
				if err != nil {
					t.Fatal(err)
				}
				ref := &unfusedFmmpOp{q: p.q, f: fused.Fitness(), dev: d.dev}
				for _, shift := range []float64{0, mu} {
					for _, path := range exitPaths {
						label := fmt.Sprintf("ν=%d %s %s µ=%g %s", nu, p.name, d.name, shift, path.name)
						run := func(op Operator, solve func(Operator, PowerOptions) (PowerResult, error)) (PowerResult, error, *callLog) {
							log := &callLog{}
							opts := PowerOptions{Start: fused.FitnessStart(), Dev: d.dev, Shift: shift, Observer: log}
							path.opts(&opts, log)
							if opts.MaxIter == 0 || opts.MaxIter > iterCap {
								opts.MaxIter = iterCap
							}
							if path.wrap != nil {
								op = path.wrap(op)
							}
							res, err := solve(op, opts)
							return res, err, log
						}
						got, gotErr, gotLog := run(fused, PowerIteration)
						want, wantErr, wantLog := run(ref, unfusedPowerIteration)
						if path.check(wantErr) {
							taken[path.name]++
						}
						comparePower(t, label, got, want, gotErr, wantErr, gotLog, wantLog)
					}
				}
			}
		}
	}
	// Tiny problems can converge exactly before a forced exit triggers;
	// every path must still be exercised somewhere in the matrix.
	for _, path := range exitPaths {
		if taken[path.name] == 0 {
			t.Errorf("exit path %s never taken", path.name)
		}
	}
	t.Logf("exit paths taken: %v", taken)
}

// TestPowerIterationSerialMatchesOneWorkerDevice: the serial passes and
// the device reductions sum on the same vec.ReduceChunk pieces in the same
// 4-lane order and apply the same range check, so a serial solve (Dev nil)
// and solves on 1-, 2- and 3-worker devices agree bit for bit — λ,
// residual, iteration count, iterate and every Observer callback — from a
// fitness start, shifted and not, on every exit path. ν = 18 spans two
// pieces, which 3 workers reduce in one launch; it runs the uniform process
// only, to keep the test to seconds, and not under the race detector.
func TestPowerIterationSerialMatchesOneWorkerDevice(t *testing.T) {
	r := rng.New(1214)
	devs := []*device.Device{device.New(1), device.New(2, device.WithGrain(64)), device.New(3, device.WithGrain(64))}
	sizes := []int{1, 5, 11, 12, 13, 18}
	if raceDetector || testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, nu := range sizes {
		l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		procs := fusedTestProcesses(t, r, nu)
		if nu == 18 {
			procs = procs[:1]
		}
		for _, p := range procs {
			serialOp, err := NewFmmpOperator(p.q, l, Right, nil)
			if err != nil {
				t.Fatal(err)
			}
			devOps := make([]*FmmpOperator, len(devs))
			for i, dev := range devs {
				if devOps[i], err = NewFmmpOperator(p.q, l, Right, dev); err != nil {
					t.Fatal(err)
				}
			}
			for _, mu := range []float64{0, ConservativeShift(p.q, l)} {
				for _, path := range exitPaths {
					run := func(op Operator, dev *device.Device) (PowerResult, error, *callLog) {
						log := &callLog{}
						opts := PowerOptions{Start: serialOp.FitnessStart(), Dev: dev, Shift: mu, Observer: log, MaxIter: 150}
						path.opts(&opts, log)
						if path.wrap != nil {
							op = path.wrap(op)
						}
						res, err := PowerIteration(op, opts)
						return res, err, log
					}
					got, gotErr, gotLog := run(serialOp, nil)
					for i, dev := range devs {
						want, wantErr, wantLog := run(devOps[i], dev)
						comparePower(t, fmt.Sprintf("ν=%d %s %v µ=%g %s", nu, p.name, dev, mu, path.name), got, want, gotErr, wantErr, gotLog, wantLog)
					}
				}
			}
		}
	}
}

// TestFusedPowerIterationWorkWarmStart runs the sweep's continuation
// pattern — Work-backed solves whose Start aliases the scratch iterate —
// through both loops: the fused loop swaps its buffers every iteration and
// repoints the Work at exit, so its result must still alias the scratch
// iterate and match the reference bit for bit.
func TestFusedPowerIterationWorkWarmStart(t *testing.T) {
	r := rng.New(77)
	const nu = 12
	l, err := landscape.NewRandom(nu, 5, 1, r.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []*device.Device{nil, device.New(2, device.WithGrain(64))} {
		fusedWork, refWork := NewPowerWork(1<<nu), NewPowerWork(1<<nu)
		var fusedStart, refStart []float64
		for i, p := range []float64{0.004, 0.006, 0.008, 0.01} {
			q := mutation.MustUniform(nu, p)
			fused, err := NewFmmpOperator(q, l, Right, dev)
			if err != nil {
				t.Fatal(err)
			}
			ref := &unfusedFmmpOp{q: q, f: fused.Fitness(), dev: dev}
			if i == 0 {
				fusedStart, refStart = fused.FitnessStart(), fused.FitnessStart()
			}
			mu := ConservativeShift(q, l)
			got, gotErr := PowerIteration(fused, PowerOptions{Tol: 1e-11, Start: fusedStart, Shift: mu, Dev: dev, Work: fusedWork})
			want, wantErr := unfusedPowerIteration(ref, PowerOptions{Tol: 1e-11, Start: refStart, Shift: mu, Dev: dev, Work: refWork})
			comparePower(t, fmt.Sprintf("dev=%v p=%g", dev, p), got, want, gotErr, wantErr, &callLog{}, &callLog{})
			if &got.Vector[0] != &fusedWork.x[0] {
				t.Fatalf("p=%g: result does not alias the scratch iterate", p)
			}
			fusedStart, refStart = got.Vector, want.Vector
		}
	}
}

// TestAdaptiveEscalationContinuesFromPowerIterate: a warm Start that
// aliases the power scratch iterate is consumed by the power gear, so when
// that gear fails the Chebyshev gear starts from the power gear's last
// iterate. The fused loop leaves that iterate in either scratch buffer
// (odd and even budgets cover both); the escalation must not depend on
// which. The reference runs the Chebyshev gear directly from that iterate.
// At 0.3·p_c the gap is wide enough that auto predicts power no dearer
// than Chebyshev (22 vs 31 matvecs), so auto starts on the power gear.
func TestAdaptiveEscalationContinuesFromPowerIterate(t *testing.T) {
	const nu = 11
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(2, -1.0/nu)
	q := mutation.MustUniform(nu, 0.3*pc)
	opR, err := NewFmmpOperator(q, l, Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	opS, err := NewFmmpOperator(q, l, Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	mu := ConservativeShift(q, l)
	for _, budget := range []int{10, 11} {
		opts := func(method SolveMethod, start []float64, work *AdaptiveWork) AdaptiveOptions {
			return AdaptiveOptions{Method: method, Tol: 1e-12, PowerShift: mu,
				MaxIter: budget, Start: start, Work: work}
		}
		// Warm start aliasing the scratch iterate, as in a sweep chain.
		work := NewAdaptiveWork(1 << nu)
		warm, err := PowerIteration(opR, PowerOptions{Tol: 1e-6, Start: opR.FitnessStart(), Shift: mu, Work: work.Power})
		if err != nil {
			t.Fatal(err)
		}
		start := vec.Clone(warm.Vector)
		got, err := AdaptiveSolve(opR, opS, opts(SolveAuto, warm.Vector, work))
		if err != nil {
			t.Fatal(err)
		}
		if got.Escalations != 1 || got.Method != SolveChebyshev {
			t.Fatalf("budget %d: %d escalations to %v, want the power gear to escalate to Chebyshev once", budget, got.Escalations, got.Method)
		}
		// Reference: the failed power gear, then the Chebyshev gear directly
		// from its iterate (a forced Chebyshev solve would start from the
		// probe's Ritz vector instead).
		failed, err := PowerIteration(opR, PowerOptions{Tol: 1e-12, MaxIter: budget, Start: start, Shift: mu})
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("budget %d: reference power gear returned %v", budget, err)
		}
		// The probe is the self-stopping one, from the fixed start: the solve
		// carries no chain state.
		p, err := ritzGap(opS, 24, nil, nil, 1e-12, nil)
		if err != nil {
			t.Fatal(err)
		}
		symStart := make([]float64, 1<<nu)
		stageSymmetric(symStart, opS, failed.Vector)
		cheb, err := ChebyshevIteration(opS, ChebyshevOptions{
			Tol: 1e-12, LowerEdge: ConservativeShift(opS.Q, opS.F), UpperEdge: chebyshevEdge(p.theta0, p.theta1),
			MaxMatVecs: budget, Start: symStart,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 1<<nu)
		if err := rightForm(want, opS, cheb.Vector); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Lambda, cheb.Lambda) || got.Iterations != p.built+budget+cheb.MatVecs {
			t.Fatalf("budget %d: (λ %v, %d iters), reference (λ %v, %d + %d + %d iters)",
				budget, got.Lambda, got.Iterations, cheb.Lambda, p.built, budget, cheb.MatVecs)
		}
		for i := range got.Vector {
			if !sameBits(got.Vector[i], want[i]) {
				t.Fatalf("budget %d: x[%d] = %v, reference %v", budget, i, got.Vector[i], want[i])
			}
		}
	}
}
