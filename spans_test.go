package quasispecies

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
)

// solveProfiled runs one Pi(Fmmp) solve under a fresh span profile and
// returns the stopped profile. The solve starts from the fitness start:
// on this single peak the default class-projected start converges in one
// iteration, too few for the per-iteration phases to dominate the power
// span.
func solveProfiled(t *testing.T, nu int, workers int) *SpanProfile {
	t.Helper()
	mut, err := UniformMutation(nu, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	land, err := SinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := New(mut, land, WithMethod(MethodFmmp), WithWorkers(workers),
		WithStart(core.FitnessStart(land.l)))
	if err != nil {
		t.Fatal(err)
	}
	prof := StartSpanProfile(0)
	defer prof.Stop()
	if _, err := model.Solve(); err != nil {
		t.Fatal(err)
	}
	prof.Stop()
	return prof
}

func phase(phases []PhaseTime, layer, name string) (PhaseTime, bool) {
	for _, p := range phases {
		if p.Layer == layer && p.Name == name {
			return p, true
		}
	}
	return PhaseTime{}, false
}

func TestSpanProfileCoversSolve(t *testing.T) {
	// ν large enough that per-iteration compute dominates the fixed
	// Begin/End bookkeeping of 3 phase spans per iteration: with the
	// AVX2 kernel floor a ν=12 matvec is sub-microsecond, which pushed
	// instrumentation overhead past the coverage bar below.
	prof := solveProfiled(t, 15, 1)
	phases := prof.Phases()

	facade, ok := phase(phases, "facade", "solve")
	if !ok {
		t.Fatalf("no facade solve span; phases: %+v", phases)
	}
	power, ok := phase(phases, "core", "power")
	if !ok {
		t.Fatalf("no core power span; phases: %+v", phases)
	}
	if _, ok := phase(phases, "mutation", "apply"); !ok {
		t.Errorf("no mutation apply span; phases: %+v", phases)
	}
	if start, ok := phase(phases, "facade", "start"); !ok || start.Count != 1 || start.Total > facade.Total {
		t.Errorf("want one facade start span inside the solve span %v; phases: %+v", facade.Total, phases)
	}

	// The iteration phases partition the loop body: their totals are
	// nested inside the power span, so they can never exceed it, and
	// together they account for nearly all of it.
	var phaseSum time.Duration
	for _, name := range []string{"matvec", "rayleigh", "residual"} {
		p, ok := phase(phases, "core", name)
		if !ok {
			t.Fatalf("no core %s span; phases: %+v", name, phases)
		}
		if p.Count == 0 || p.Total <= 0 {
			t.Errorf("core %s: count=%d total=%v", name, p.Count, p.Total)
		}
		phaseSum += p.Total
	}
	if phaseSum > power.Total {
		t.Errorf("iteration phases sum to %v > power span %v", phaseSum, power.Total)
	}
	if phaseSum < power.Total/2 {
		t.Errorf("iteration phases sum to %v, less than half the power span %v", phaseSum, power.Total)
	}
	if power.Total > facade.Total {
		t.Errorf("power span %v exceeds facade solve span %v", power.Total, facade.Total)
	}
	// The profile starts immediately before Solve, so the facade span
	// accounts for (nearly) the whole recording: within 5% of wall time.
	wall := prof.Wall()
	if facade.Total > wall {
		t.Errorf("facade span %v exceeds wall %v", facade.Total, wall)
	}
	if facade.Total < wall-wall/20 {
		t.Errorf("facade span %v covers less than 95%% of wall %v", facade.Total, wall)
	}
}

func TestSpanProfileChromeExport(t *testing.T) {
	prof := solveProfiled(t, 10, 2)
	var buf bytes.Buffer
	if err := prof.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	cats := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID == 0 {
			t.Fatalf("malformed event %+v", ev)
		}
		cats[ev.Cat] = true
	}
	// A worker-pool solve reaches every instrumented layer except batch.
	for _, want := range []string{"facade", "core", "mutation", "device"} {
		if !cats[want] {
			t.Errorf("no %s-layer events in export (cats: %v)", want, cats)
		}
	}
	var table bytes.Buffer
	if err := prof.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if table.Len() == 0 {
		t.Error("empty span table")
	}
}

// Solves with and without the profiler installed must be bit-identical:
// span recording is passive observation.
func TestSpanProfileBitIdentical(t *testing.T) {
	run := func(profiled bool) *Solution {
		mut, _ := UniformMutation(10, 0.05)
		land, _ := SinglePeak(10, 2, 1)
		model, err := New(mut, land, WithMethod(MethodFmmp))
		if err != nil {
			t.Fatal(err)
		}
		if profiled {
			prof := StartSpanProfile(0)
			defer prof.Stop()
		}
		sol, err := model.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	bare := run(false)
	prof := run(true)
	if bare.Lambda != prof.Lambda || bare.Iterations != prof.Iterations || bare.Residual != prof.Residual {
		t.Fatalf("profiled solve diverged: λ %v vs %v, iters %d vs %d, residual %v vs %v",
			bare.Lambda, prof.Lambda, bare.Iterations, prof.Iterations, bare.Residual, prof.Residual)
	}
	for i := range bare.Concentrations {
		if bare.Concentrations[i] != prof.Concentrations[i] {
			t.Fatalf("concentration %d differs: %v vs %v", i, bare.Concentrations[i], prof.Concentrations[i])
		}
	}
}

// The reduced route's 2^ν expansion is its own facade span, nested in the
// solve span, with the vector length N as its first argument.
func TestSpanProfileReducedExpand(t *testing.T) {
	const nu = 12
	mut, _ := UniformMutation(nu, 0.01)
	land, _ := SinglePeak(nu, 2, 1)
	model, err := New(mut, land, WithMethod(MethodReduced))
	if err != nil {
		t.Fatal(err)
	}
	prof := StartSpanProfile(0)
	defer prof.Stop()
	if _, err := model.Solve(); err != nil {
		t.Fatal(err)
	}
	prof.Stop()
	phases := prof.Phases()
	solve, ok := phase(phases, "facade", "solve")
	if !ok {
		t.Fatalf("no facade solve span; phases: %+v", phases)
	}
	expand, ok := phase(phases, "facade", "expand")
	if !ok || expand.Count != 1 {
		t.Fatalf("want one facade expand span; phases: %+v", phases)
	}
	if expand.Total > solve.Total || solve.Self > solve.Total-expand.Total {
		t.Errorf("expand span %v is not nested in the solve span %v (self %v)", expand.Total, solve.Total, solve.Self)
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
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "facade" && ev.Name == "expand" {
			if dim, _ := ev.Args["dim"].(float64); dim != 1<<nu {
				t.Errorf("expand span args %v, want dim %d", ev.Args, 1<<nu)
			}
			return
		}
	}
	t.Error("no facade expand event in the export")
}
