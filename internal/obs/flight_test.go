package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/span"
)

func testFlightManifest(runID string) *Manifest {
	return &Manifest{
		Schema: ManifestSchema, RunID: runID,
		Time:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: "go-test", GOOS: "test", GOARCH: "test",
		NumCPU: 1, GOMAXPROCS: 1,
	}
}

// quietConfig is a watchdog-off, signal-off flight config for ring and
// bundle tests.
func quietConfig(dir string) FlightConfig {
	return FlightConfig{
		Dir: dir, TraceEvery: 1,
		MetricPeriod:   -1 * time.Second,
		Watchdog:       WatchdogConfig{Interval: -1 * time.Second},
		DisableSignals: true, DisablePanicHook: true,
	}
}

func TestRingOverwriteOldest(t *testing.T) {
	r := newRing[int](4)
	for i := 0; i < 10; i++ {
		r.push(i)
	}
	got := r.snapshot()
	want := []int{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot %v, want %v", got, want)
		}
	}
	retained, total := r.totals()
	if retained != 4 || total != 10 {
		t.Fatalf("totals = (%d, %d), want (4, 10)", retained, total)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := newRing[string](8)
	r.push("a")
	r.push("b")
	got := r.snapshot()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("snapshot %v, want [a b]", got)
	}
}

func TestFlightWatchdogStallEscalation(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var warns []string
	cfg := quietConfig(dir)
	cfg.Watchdog = WatchdogConfig{
		Interval:    2 * time.Millisecond,
		StallChecks: 3,
		StallWall:   -1 * time.Second,
		WarnAfter:   1,
		DumpAfter:   2,
		Log: func(line string) {
			mu.Lock()
			warns = append(warns, line)
			mu.Unlock()
		},
	}
	f := StartFlight(testFlightManifest("testrun-stall"), cfg)
	defer f.Stop()

	o := f.Observer("p=stall")
	o.Method(core.SolveKindPower)
	o.Event(core.EventStart, 0, 0, 0)
	o.Step(1, 2.0, 1e-3) // first check improves over +Inf
	for i := 2; i <= 12; i++ {
		o.Step(i, 2.0, 1e-3) // flat residual: no improvement
	}

	// A bundle is listed as soon as its directory is claimed; dump.json is
	// written last, so wait for it before reading the bundle.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b := f.Bundles(); len(b) > 0 {
			if _, err := os.Stat(filepath.Join(b[0], "dump.json")); err == nil {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	bundles := f.Bundles()
	if len(bundles) == 0 {
		t.Fatal("watchdog did not dump a stall bundle")
	}
	if !strings.HasSuffix(bundles[0], "-stall") {
		t.Fatalf("bundle dir %q does not name reason stall", bundles[0])
	}

	man, err := ReadManifestFile(filepath.Join(bundles[0], ManifestName))
	if err != nil {
		t.Fatalf("bundle manifest: %v", err)
	}
	if man.RunID != "testrun-stall" {
		t.Fatalf("bundle manifest run ID %q, want testrun-stall", man.RunID)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(warns) == 0 {
		t.Fatal("no structured warning emitted before the dump")
	}
	var fields map[string]any
	if err := json.Unmarshal([]byte(warns[0]), &fields); err != nil {
		t.Fatalf("warning %q is not a JSON object: %v", warns[0], err)
	}
	if fields["kind"] != "stall" || fields["run_id"] != "testrun-stall" {
		t.Fatalf("warning fields = %v, want kind=stall run_id=testrun-stall", fields)
	}
	if fields["method"] != core.SolveKindPower {
		t.Fatalf("warning method = %v, want %q", fields["method"], core.SolveKindPower)
	}
}

func TestFlightNaNEscalatesImmediately(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var warns []string
	cfg := quietConfig(dir)
	cfg.Watchdog.Log = func(line string) {
		mu.Lock()
		warns = append(warns, line)
		mu.Unlock()
	}
	f := StartFlight(testFlightManifest("testrun-nan"), cfg)
	defer f.Stop()

	o := f.Observer("p=nan")
	o.Event(core.EventStart, 0, 0, 0)
	o.Step(1, 1.0, 1e-3)
	nan := 0.0
	nan /= nan // NaN without math.NaN, keeps the import list short
	o.Step(2, 1.0, nan)
	o.Step(3, 1.0, nan) // second NaN must not dump a second bundle

	bundles := f.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("NaN escalation dumped %d bundles, want exactly 1", len(bundles))
	}
	if !strings.HasSuffix(bundles[0], "-nan") {
		t.Fatalf("bundle dir %q does not name reason nan", bundles[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warns) != 1 || !strings.Contains(warns[0], `"kind":"nan"`) {
		t.Fatalf("warnings = %v, want one nan warning", warns)
	}
}

func TestFlightTraceThinning(t *testing.T) {
	cfg := quietConfig(t.TempDir())
	cfg.TraceEvery = 4
	f := StartFlight(testFlightManifest("testrun-thin"), cfg)
	defer f.Stop()

	o := f.Observer("p=thin")
	o.Event(core.EventStart, 0, 0, 0)
	for i := 1; i <= 10; i++ {
		o.Step(i, 1.0, 1.0/float64(i))
	}
	o.Event(core.EventConverged, 10, 1.0, 0.1)

	rows := f.TraceRows()
	var iters []int
	for _, r := range rows {
		if r.Event == "" {
			iters = append(iters, r.Iter)
		}
		if r.RunID != "testrun-thin" {
			t.Fatalf("trace row missing run ID: %+v", r)
		}
	}
	// Kept: every 4th step (4, 8) plus the pending step 10 flushed by the
	// terminal event.
	want := []int{4, 8, 10}
	if len(iters) != len(want) {
		t.Fatalf("retained step iters %v, want %v", iters, want)
	}
	for i := range want {
		if iters[i] != want[i] {
			t.Fatalf("retained step iters %v, want %v", iters, want)
		}
	}
	last := rows[len(rows)-1]
	if last.Event != core.EventConverged || last.Iter != 10 {
		t.Fatalf("last row = %+v, want converged event at iter 10", last)
	}
}

func TestFlightObserverReuseRearms(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-reuse"), quietConfig(t.TempDir()))
	defer f.Stop()

	o := f.Observer("p=reuse")
	o.Event(core.EventStart, 0, 0, 0)
	o.Step(1, 1.0, 1e-3)
	o.Event(core.EventConverged, 1, 1.0, 1e-3)
	f.mu.Lock()
	n := len(f.solves)
	f.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d solves registered after terminal event, want 0", n)
	}

	o.Event(core.EventStart, 0, 0, 0) // rep 2 on the same model/observer
	f.mu.Lock()
	n = len(f.solves)
	done := o.done
	f.mu.Unlock()
	if n != 1 || done {
		t.Fatalf("reused observer not re-armed: registered=%d done=%v", n, done)
	}
}

func TestDumpBundleContentsAndCap(t *testing.T) {
	dir := t.TempDir()
	cfg := quietConfig(dir)
	cfg.MaxBundles = 2
	f := StartFlight(testFlightManifest("testrun-dump"), cfg)
	defer f.Stop()

	f.NoteDecision("method", "p=0.03", "power", 0)
	first, err := f.DumpBundle("manual", map[string]any{"trigger": "test"})
	if err != nil {
		t.Fatalf("DumpBundle: %v", err)
	}
	for _, name := range []string{
		ManifestName, "spans.jsonl", "trace.jsonl", "decisions.jsonl",
		"metrics.jsonl", "goroutines.txt", "dump.json",
	} {
		if _, err := os.Stat(filepath.Join(first, name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
	var sum dumpSummary
	data, err := os.ReadFile(filepath.Join(first, "dump.json"))
	if err != nil {
		t.Fatalf("dump.json: %v", err)
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("dump.json: %v", err)
	}
	if sum.RunID != "testrun-dump" || sum.Reason != "manual" {
		t.Fatalf("dump summary = %+v", sum)
	}

	if _, err := f.DumpBundle("manual", nil); err != nil {
		t.Fatalf("second DumpBundle: %v", err)
	}
	third, err := f.DumpBundle("manual", nil)
	if err != nil {
		t.Fatalf("capped DumpBundle: %v", err)
	}
	if third != "" {
		t.Fatalf("third bundle %q dumped past MaxBundles=2", third)
	}
	if got := len(f.Bundles()); got != 2 {
		t.Fatalf("Bundles() has %d entries, want 2", got)
	}
}

func TestDumpOnError(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-err"), quietConfig(t.TempDir()))
	defer f.Stop()

	if dir, ok := f.DumpOnError(nil); ok || dir != "" {
		t.Fatal("nil error dumped a bundle")
	}
	if dir, ok := f.DumpOnError(os.ErrNotExist); ok || dir != "" {
		t.Fatal("unrelated error dumped a bundle")
	}

	cerr := &core.ConvergenceError{
		Reason: core.ErrStagnated, Method: core.SolveKindPower,
		Iterations: 42, Residual: 1e-9, BestResidual: 1e-9,
		SinceImprovement: 7, Tol: 1e-13,
	}
	dir, ok := f.DumpOnError(cerr)
	if !ok || !strings.HasSuffix(dir, "-convergence_error") {
		t.Fatalf("DumpOnError = (%q, %v)", dir, ok)
	}
	data, err := os.ReadFile(filepath.Join(dir, "error.json"))
	if err != nil {
		t.Fatalf("error.json: %v", err)
	}
	var back core.ConvergenceError
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("error.json round-trip: %v", err)
	}
	if back.Iterations != 42 || back.Method != core.SolveKindPower {
		t.Fatalf("error.json round-trip = %+v", back)
	}

	gerr := &core.GapUnresolvedError{Reason: "window too narrow", Lambda0: 2, Lambda1: 1.999}
	dir, ok = f.DumpOnError(gerr)
	if !ok || !strings.HasSuffix(dir, "-gap_unresolved") {
		t.Fatalf("DumpOnError gap = (%q, %v)", dir, ok)
	}
}

// diagOp is a diagonal operator: a symmetric test problem with a known
// spectrum for the Krylov solvers.
type diagOp []float64

func (d diagOp) Dim() int { return len(d) }
func (d diagOp) Apply(dst, src []float64) {
	for i := range dst {
		dst[i] = d[i] * src[i]
	}
}

func TestDumpOnErrorFromKrylovSolves(t *testing.T) {
	// A budget-capped Lanczos, Arnoldi or shift-invert Lanczos solve fails
	// with a typed *core.ConvergenceError, which a flight recording dumps as
	// a bundle.
	f := StartFlight(testFlightManifest("testrun-krylov"), quietConfig(t.TempDir()))
	defer f.Stop()

	op := make(diagOp, 64)
	for i := range op {
		op[i] = 1 / float64(i+1)
	}
	_, lerr := core.Lanczos(op, core.LanczosOptions{Tol: 1e-30, BasisSize: 3, MaxRestarts: 2})
	_, aerr := core.Arnoldi(op, core.ArnoldiOptions{Tol: 1e-30, BasisSize: 2, MaxRestarts: 2})
	_, serr := core.ShiftInvertLanczos(op, core.ShiftInvertOptions{Tol: 1e-30, Shift: 1.5, BasisSize: 2, MaxRestarts: 2})
	for _, c := range []struct {
		err    error
		method string
	}{{lerr, core.SolveKindLanczos}, {aerr, "arnoldi"}, {serr, core.SolveKindShiftInvert}} {
		var ce *core.ConvergenceError
		if !errors.As(c.err, &ce) {
			t.Fatalf("%s: err = %v (%T), want *core.ConvergenceError", c.method, c.err, c.err)
		}
		if ce.Method != c.method || ce.Iterations == 0 || ce.Tol != 1e-30 ||
			!(ce.BestResidual <= ce.Residual) || !errors.Is(c.err, core.ErrNoConvergence) {
			t.Fatalf("%s: ConvergenceError = %+v", c.method, ce)
		}
		dir, ok := f.DumpOnError(c.err)
		if !ok || !strings.HasSuffix(dir, "-convergence_error") {
			t.Fatalf("%s: DumpOnError = (%q, %v)", c.method, dir, ok)
		}
		if _, err := os.Stat(filepath.Join(dir, "error.json")); err != nil {
			t.Fatalf("%s: error.json: %v", c.method, err)
		}
	}
}

func TestFlightSpanTeeAndRunIDStamping(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-spans"), quietConfig(t.TempDir()))
	defer f.Stop()

	// A profiler born during the flight is stamped with its run ID.
	p := StartSpanProfiler(64)
	defer p.Stop()
	if p.RunID() != "testrun-spans" {
		t.Fatalf("profiler run ID %q, want testrun-spans", p.RunID())
	}

	sp := span.Begin(span.LayerFacade, "test_span")
	span.End(sp, 1, 2)

	spans := f.Spans()
	if len(spans) == 0 {
		t.Fatal("span event did not tee into the flight ring")
	}
	found := false
	for _, s := range spans {
		if s.Name == "test_span" && s.A1 == 1 && s.A2 == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("test_span not retained; ring = %+v", spans)
	}
}

func TestFlightStatus(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-status"), quietConfig(t.TempDir()))
	defer f.Stop()
	f.NoteDecision("method", "p=0.01", "power", 3)
	st := f.status()
	if !st.Active || st.RunID != "testrun-status" {
		t.Fatalf("status = %+v", st)
	}
	if st.Decisions.Total != 1 || len(st.Recent) != 1 {
		t.Fatalf("status decisions = %+v recent=%d", st.Decisions, len(st.Recent))
	}
}
