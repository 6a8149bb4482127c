package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/vec"
)

// Zero-overhead contract of the observability hooks (see internal/obs):
// with no span recorder installed, the solver hot paths must not allocate
// and must produce bit-identical results whether or not instrumentation
// ran before. The alloc guards below are the enforcement. The file is an
// external test package so the solves can run under the real span
// profiler of internal/obs.

func obsTestOperator(t *testing.T, nu int, p float64) *core.FmmpOperator {
	t.Helper()
	q := mutation.MustUniform(nu, p)
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestOperatorApplyDoesNotAllocateWithHooksDisabled(t *testing.T) {
	op := obsTestOperator(t, 12, 0.01)
	n := op.Dim()
	dst := make([]float64, n)
	src := make([]float64, n)
	vec.Fill(src, 1)
	if allocs := testing.AllocsPerRun(10, func() { op.Apply(dst, src) }); allocs != 0 {
		t.Errorf("FmmpOperator.Apply allocates %.0f objects per call with hooks disabled", allocs)
	}
}

func TestPowerIterationDoesNotAllocateWithHooksDisabled(t *testing.T) {
	op := obsTestOperator(t, 10, 0.01)
	n := op.Dim()
	work := core.NewPowerWork(n)
	start := make([]float64, n)
	vec.Fill(start, 1)
	opts := core.PowerOptions{Tol: 1e-10, Work: work, Start: start}
	// Warm up once so lazily grown scratch settles before counting.
	if _, err := core.PowerIteration(op, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.PowerIteration(op, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PowerIteration allocates %.0f objects per solve with Work supplied and hooks disabled", allocs)
	}
}

// recordingObserver is a minimal Observer for the bit-identity test.
type recordingObserver struct{ steps, events int }

func (r *recordingObserver) Step(iter int, lambda, residual float64) { r.steps++ }
func (r *recordingObserver) Event(event string, iter int, lambda, residual float64) {
	r.events++
}

// TestInstrumentationIsBitIdentical runs the same solve bare, under the
// full observer stack — a convergence observer plus the span profiler on
// the span hook — and bare again, and requires the three
// results to agree to the last bit: instrumentation must only watch, never
// steer.
func TestInstrumentationIsBitIdentical(t *testing.T) {
	op := obsTestOperator(t, 10, 0.02)
	n := op.Dim()
	start := make([]float64, n)
	vec.Fill(start, 1)

	solve := func(observer core.Observer) core.PowerResult {
		res, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-11, Start: start, Observer: observer})
		if err != nil {
			t.Fatal(err)
		}
		out := res
		out.Vector = append([]float64(nil), res.Vector...)
		return out
	}

	bare := solve(nil)

	ro := &recordingObserver{}
	prof := obs.StartSpanProfiler(0)
	instrumented := solve(ro)
	prof.Stop()

	bareAgain := solve(nil)

	for name, got := range map[string]core.PowerResult{"instrumented": instrumented, "bare-again": bareAgain} {
		if got.Lambda != bare.Lambda || got.Iterations != bare.Iterations || got.Residual != bare.Residual {
			t.Errorf("%s solve diverged: λ %v vs %v, iters %d vs %d, residual %v vs %v",
				name, got.Lambda, bare.Lambda, got.Iterations, bare.Iterations, got.Residual, bare.Residual)
		}
		for i := range got.Vector {
			if got.Vector[i] != bare.Vector[i] {
				t.Fatalf("%s solve: vector component %d differs bitwise", name, i)
			}
		}
	}
	for name, want := range map[string]int64{
		core.SolveKindPower: 1, core.PhaseResidual: int64(instrumented.Iterations),
	} {
		var got int64
		for _, s := range prof.Stats() {
			if s.Layer == span.LayerCore && s.Name == name {
				got = s.Count
			}
		}
		if got != want {
			t.Errorf("core/%s spans = %d, want %d", name, got, want)
		}
	}
	if ro.steps != instrumented.Iterations {
		t.Errorf("observer steps = %d, want one per residual check (%d)", ro.steps, instrumented.Iterations)
	}
	if ro.events != 2 { // start + converged
		t.Errorf("observer events = %d, want 2", ro.events)
	}
}

// countingSpanHandle / countingSpanRecorder are a minimal span.Recorder for
// the span bit-identity test.
type countingSpanHandle struct{ r *countingSpanRecorder }

func (h *countingSpanHandle) End(a1, a2 int64) { h.r.ends++ }

type countingSpanRecorder struct {
	begins, ends, records int
	byName                map[string]int
}

func (r *countingSpanRecorder) Begin(layer, name string) span.Handle {
	r.begins++
	if r.byName == nil {
		r.byName = make(map[string]int)
	}
	r.byName[layer+"/"+name]++
	return &countingSpanHandle{r: r}
}

func (r *countingSpanRecorder) Record(layer, name string, d time.Duration, a1, a2 int64) {
	r.records++
}

// TestSpanRecorderIsBitIdentical runs the same solve bare, under a span
// recorder, and bare again: spans must only watch, never steer, and the
// recorder must see the full phase structure.
func TestSpanRecorderIsBitIdentical(t *testing.T) {
	op := obsTestOperator(t, 10, 0.02)
	n := op.Dim()
	start := make([]float64, n)
	vec.Fill(start, 1)
	l, err := landscape.NewSinglePeak(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu := core.ConservativeShift(mutation.MustUniform(10, 0.02), l)

	solve := func() core.PowerResult {
		res, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-11, Start: start, Shift: mu})
		if err != nil {
			t.Fatal(err)
		}
		out := res
		out.Vector = append([]float64(nil), res.Vector...)
		return out
	}

	bare := solve()

	sr := &countingSpanRecorder{}
	span.SetRecorder(sr)
	spanned := solve()
	span.SetRecorder(nil)

	bareAgain := solve()

	for name, got := range map[string]core.PowerResult{"spanned": spanned, "bare-again": bareAgain} {
		if got.Lambda != bare.Lambda || got.Iterations != bare.Iterations || got.Residual != bare.Residual {
			t.Errorf("%s solve diverged: λ %v vs %v, iters %d vs %d, residual %v vs %v",
				name, got.Lambda, bare.Lambda, got.Iterations, bare.Iterations, got.Residual, bare.Residual)
		}
		for i := range got.Vector {
			if got.Vector[i] != bare.Vector[i] {
				t.Fatalf("%s solve: vector component %d differs bitwise", name, i)
			}
		}
	}
	if sr.begins == 0 || sr.begins != sr.ends {
		t.Errorf("span recorder saw begins=%d ends=%d, want equal and nonzero", sr.begins, sr.ends)
	}
	iters := spanned.Iterations
	if got := sr.byName["core/power"]; got != 1 {
		t.Errorf("solve spans = %d, want 1", got)
	}
	// The fused power step records pass A under rayleigh and pass B under
	// residual; the shift and normalization have no passes of their own.
	for phase, want := range map[string]int{
		core.PhaseMatvec: iters, core.PhaseRayleigh: iters, core.PhaseResidual: iters,
		"shift": 0, core.PhaseNormalize: 0,
	} {
		if got := sr.byName["core/"+phase]; got != want {
			t.Errorf("%s spans = %d, want %d", phase, got, want)
		}
	}
	if got := sr.byName["mutation/apply"]; got != iters {
		t.Errorf("mutation apply spans = %d, want %d", got, iters)
	}
}

// TestConvergenceErrorDiagnostics forces a stall and checks the enriched
// error carries the shift, best residual and staleness diagnostics.
func TestConvergenceErrorDiagnostics(t *testing.T) {
	op := obsTestOperator(t, 8, 0.04)
	l, _ := landscape.NewSinglePeak(8, 2, 1)
	mu := core.ConservativeShift(mutation.MustUniform(8, 0.04), l)
	_, err := core.PowerIteration(op, core.PowerOptions{
		// No more checks than the stall guard's window of 100: the budget
		// ends the solve.
		Tol: 1e-30, MaxIter: 100, Shift: mu,
	})
	ce, ok := err.(*core.ConvergenceError)
	if !ok {
		t.Fatalf("err = %T (%v), want *core.ConvergenceError", err, err)
	}
	if ce.Reason != core.ErrNoConvergence {
		t.Errorf("Reason = %v", ce.Reason)
	}
	if ce.Iterations != 100 || ce.Shift != mu || ce.Tol != 1e-30 {
		t.Errorf("diagnostics = %+v", ce)
	}
	if ce.BestResidual <= 0 || ce.BestResidual > ce.Residual*(1+1e-9)+1 {
		t.Errorf("BestResidual = %g (residual %g)", ce.BestResidual, ce.Residual)
	}
	if ce.SinceImprovement < 0 {
		t.Errorf("SinceImprovement = %d", ce.SinceImprovement)
	}
}
