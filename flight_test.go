package quasispecies

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/obs"
)

// TestFlightStallAcceptance is the flight recorder's end-to-end check: a
// capped-iteration power solve pinned at the error threshold (ν = 14,
// p ≈ p_c) is forced to stall — it starts from the already-converged
// eigenvector with an unattainable tolerance, so the residual sits at the
// floating-point floor from the first check — and the watchdog must
// notice, emit a structured warning, and dump a diagnostic bundle whose
// run ID matches the manifest, the span profile and the trace rows.
func TestFlightStallAcceptance(t *testing.T) {
	const nu = 14
	pc := 1 - math.Pow(2, -1/float64(nu))

	// Exact solution via the class reduction: the warm start that pins the
	// power iteration at its floor.
	l, err := SinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mut, err := UniformMutation(nu, pc)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := func() (*Solution, error) {
		m, err := New(mut, l, WithMethod(MethodReduced))
		if err != nil {
			return nil, err
		}
		return m.Solve()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if exact.Concentrations == nil {
		t.Fatal("reduced solve did not materialize concentrations")
	}

	tmp := t.TempDir()
	fl := StartFlight(FlightOptions{
		Dir: filepath.Join(tmp, "bundles"), Tool: "go-test",
		Nu: nu, Method: "power", PGrid: []float64{pc},
		WatchdogInterval: 2 * time.Millisecond,
		StallChecks:      3,
		StallWall:        -1 * time.Second,
		TraceEvery:       1,
	})
	defer fl.Stop()

	ql, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := mutation.NewUniform(nu, pc)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(qm, ql, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, serr := core.PowerIteration(op, core.PowerOptions{
		Tol: 1e-30, MaxIter: 50_000_000,
		Start:       exact.Concentrations,
		StallChecks: -1, // disable the core guard; the watchdog is under test
		Observer:    fl.Observer("p=pc"),
		Monitor: func(iter int, lambda, residual float64) bool {
			// Keep iterating until the watchdog has dumped (or a generous
			// wall deadline expires and the test fails below).
			return len(fl.Bundles()) == 0 && time.Since(start) < 60*time.Second
		},
	})
	if serr == nil {
		t.Fatal("the forced-stall solve converged; the fixture is broken")
	}
	var cerr *core.ConvergenceError
	if !errors.As(serr, &cerr) {
		t.Fatalf("solve error %v is not a ConvergenceError", serr)
	}

	var stallDir string
	for _, b := range fl.Bundles() {
		if strings.HasSuffix(b, "-stall") {
			stallDir = b
		}
	}
	if stallDir == "" {
		t.Fatalf("watchdog did not dump a stall bundle; bundles = %v", fl.Bundles())
	}
	// The bundle is registered before its files land (the monitor aborted
	// the solve on registration); dump.json is written last, so wait for it.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if fi, err := os.Stat(filepath.Join(stallDir, "dump.json")); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall bundle never finished writing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Run-ID consistency: manifest ↔ span profile ↔ trace rows.
	man, err := obs.ReadManifestFile(filepath.Join(stallDir, "manifest.json"))
	if err != nil {
		t.Fatalf("bundle manifest: %v", err)
	}
	if man.RunID != fl.RunID() {
		t.Fatalf("manifest run ID %q != flight run ID %q", man.RunID, fl.RunID())
	}
	if man.Nu != nu || len(man.PGrid) != 1 {
		t.Fatalf("manifest workload = %+v", man)
	}

	prof := obs.InstalledProfiler()
	if prof == nil {
		t.Fatal("StartFlight did not install a span profiler")
	}
	if prof.RunID() != fl.RunID() {
		t.Fatalf("span profile run ID %q != flight run ID %q", prof.RunID(), fl.RunID())
	}

	traceFile, err := os.Open(filepath.Join(stallDir, "trace.jsonl"))
	if err != nil {
		t.Fatalf("bundle trace: %v", err)
	}
	defer traceFile.Close()
	sc := bufio.NewScanner(traceFile)
	rows := 0
	for sc.Scan() {
		var row struct {
			RunID string `json:"run_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("trace row %d: %v", rows, err)
		}
		if row.RunID != fl.RunID() {
			t.Fatalf("trace row %d run ID %q != %q", rows, row.RunID, fl.RunID())
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("bundle trace.jsonl is empty")
	}

	for _, name := range []string{"spans.jsonl", "decisions.jsonl", "goroutines.txt", "dump.json", "profile.txt", "chrome_trace.json"} {
		if fi, err := os.Stat(filepath.Join(stallDir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("bundle %s missing or empty (err=%v)", name, err)
		}
	}
}

// TestFlightOffIsInert: with no flight started, the tee points see a nil
// recorder and observing structures stay empty.
func TestFlightOffIsInert(t *testing.T) {
	if fl := obs.ActiveFlight(); fl != nil {
		t.Fatalf("a flight recorder leaked from another test: %v", fl.RunID())
	}
}

// TestTeeSolveObservers checks the tee combinator: nil short-circuits and
// both observers receive every call.
func TestTeeSolveObservers(t *testing.T) {
	if TeeSolveObservers(nil, nil) != nil {
		t.Fatal("tee of two nils is not nil")
	}
	a := &countObserver{}
	if TeeSolveObservers(a, nil) != SolveObserver(a) || TeeSolveObservers(nil, a) != SolveObserver(a) {
		t.Fatal("tee with one nil did not return the other observer unchanged")
	}
	b := &countObserver{}
	tee := TeeSolveObservers(a, b)
	tee.Step(1, 2.0, 1e-3)
	tee.Event("start", 0, 0, 0)
	if m, ok := tee.(interface{ Method(string) }); ok {
		m.Method("power")
	} else {
		t.Fatal("tee does not forward Method")
	}
	for i, o := range []*countObserver{a, b} {
		if o.steps != 1 || o.events != 1 || o.methods != 1 {
			t.Fatalf("observer %d saw steps=%d events=%d methods=%d", i, o.steps, o.events, o.methods)
		}
	}
}

type countObserver struct{ steps, events, methods int }

func (c *countObserver) Step(int, float64, float64)          { c.steps++ }
func (c *countObserver) Event(string, int, float64, float64) { c.events++ }
func (c *countObserver) Method(string)                       { c.methods++ }
