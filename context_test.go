package quasispecies

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSolveContextCompletes(t *testing.T) {
	mut, _ := UniformMutation(10, 0.01)
	land, _ := RandomLandscape(10, 5, 1, 1)
	model, err := New(mut, land, WithMethod(MethodFmmp))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := model.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Lambda-plain.Lambda) > 1e-12 {
		t.Errorf("context solve λ = %g vs plain %g", sol.Lambda, plain.Lambda)
	}
}

func TestSolveContextCancelled(t *testing.T) {
	mut, _ := UniformMutation(12, 0.01)
	land, _ := RandomLandscape(12, 5, 1, 2)
	model, err := New(mut, land, WithMethod(MethodFmmp), WithTolerance(1e-13))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled
	if _, err := model.SolveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSolveContextDeadline(t *testing.T) {
	// A near-threshold problem at larger ν runs long enough for a 1 ns
	// deadline to fire mid-iteration.
	mut, _ := UniformMutation(14, 0.06)
	land, _ := SinglePeak(14, 2, 1)
	model, err := New(mut, land, WithMethod(MethodFmmp), WithTolerance(1e-13), WithShift(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Microsecond)
	if _, err := model.SolveContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSolveContextReducedPath(t *testing.T) {
	// Class landscapes route to the instant reduction; a live context
	// passes through.
	mut, _ := UniformMutation(12, 0.01)
	land, _ := SinglePeak(12, 2, 1)
	model, _ := New(mut, land)
	sol, err := model.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodReduced {
		t.Errorf("method = %v", sol.Method)
	}
}

// traceLog is a SolveObserver that keeps the method label, the event names
// and the number of Step rows.
type traceLog struct {
	method string
	events []string
	steps  int
}

func (l *traceLog) Step(int, float64, float64)              { l.steps++ }
func (l *traceLog) Event(event string, _ int, _, _ float64) { l.events = append(l.events, event) }
func (l *traceLog) Method(kind string)                      { l.method = kind }

// TestSolveContextHonoursStart: SolveContext runs the same solve path as
// Solve, so a converged WithStart vector needs a few iterations, not a
// cold solve, also under a cancellable context.
func TestSolveContextHonoursStart(t *testing.T) {
	mut, _ := UniformMutation(10, 0.01)
	land, _ := RandomLandscape(10, 5, 1, 1)
	cold, err := New(mut, land, WithMethod(MethodFmmp))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ref, err := cold.SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(mut, land, WithMethod(MethodFmmp), WithStart(ref.Concentrations))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := warm.SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations > 3 || sol.Iterations >= ref.Iterations {
		t.Errorf("converged start took %d iterations (cold solve %d)", sol.Iterations, ref.Iterations)
	}
	if math.Abs(sol.Lambda-ref.Lambda) > 1e-12 {
		t.Errorf("warm λ = %g vs cold %g", sol.Lambda, ref.Lambda)
	}
}

// TestSolveContextReportsToObserver: a WithObserver observer sees the
// start and the terminal event of a SolveContext solve.
func TestSolveContextReportsToObserver(t *testing.T) {
	mut, _ := UniformMutation(10, 0.01)
	land, _ := RandomLandscape(10, 5, 1, 1)
	log := &traceLog{}
	model, err := New(mut, land, WithMethod(MethodFmmp), WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sol, err := model.SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.events) != 2 || log.events[0] != "start" || log.events[1] != "converged" {
		t.Errorf("events = %v, want [start converged]", log.events)
	}
	if log.steps != sol.Iterations || log.method != "power" {
		t.Errorf("steps = %d (iterations %d), method %q", log.steps, sol.Iterations, log.method)
	}
}

// TestLanczosSolveTraces: the facade hands its observer to the Krylov
// ladder MethodLanczos runs, which reports Step rows and a final converged
// event labelled with the gear that converged, here Chebyshev.
func TestLanczosSolveTraces(t *testing.T) {
	mut, _ := UniformMutation(10, 0.01)
	land, _ := RandomLandscape(10, 5, 1, 1)
	log := &traceLog{}
	model, err := New(mut, land, WithMethod(MethodLanczos), WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Solve(); err != nil {
		t.Fatal(err)
	}
	if log.steps == 0 || log.method != core.SolveKindChebyshev {
		t.Errorf("steps = %d, method %q; want rows labelled %s", log.steps, log.method, core.SolveKindChebyshev)
	}
	if n := len(log.events); n == 0 || log.events[n-1] != "converged" {
		t.Errorf("events = %v, want a final converged", log.events)
	}
}
