package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/errorclass"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/span"
)

func testFlightManifest(runID string) *Manifest {
	return &Manifest{
		Schema: ManifestSchema, RunID: runID,
		Time:  time.Now().UTC().Format(time.RFC3339),
		Build: Build{GoVersion: "go-test"},
		Host:  Host{GOOS: "test", GOARCH: "test", NumCPU: 1, GOMAXPROCS: 1},
	}
}

// quietConfig is a watchdog-off, snapshot-off flight config that keeps
// every trace row, for ring and bundle tests.
func quietConfig() flightConfig {
	return flightConfig{traceEvery: 1, maxBundles: flightMaxBundles}
}

// TraceRows returns a copy of the retained trace-ring rows.
func (f *FlightRecorder) TraceRows() []TraceRow { return f.trace.snapshot() }

// Spans returns a copy of the retained span-ring events.
func (f *FlightRecorder) Spans() []FlightSpan { return f.spans.snapshot() }

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
	cfg := quietConfig()
	cfg.interval = 2 * time.Millisecond
	cfg.stallChecks = 3
	cfg.warnAfter, cfg.dumpAfter = 1, 2
	cfg.log = func(line string) {
		mu.Lock()
		warns = append(warns, line)
		mu.Unlock()
	}
	f := startFlight(testFlightManifest("testrun-stall"), dir, cfg)
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

	ql, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := mutation.NewUniform(nu, pc)
	if err != nil {
		t.Fatal(err)
	}

	// Exact solution via the class reduction: the warm start that pins the
	// power iteration at its floor.
	phi, ok := landscape.ClassBased(ql)
	if !ok {
		t.Fatal("single peak is not class-based")
	}
	red, err := errorclass.New(phi, pc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := red.Solve()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := errorclass.Expand(res.ClassVector)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1<<nu {
		t.Fatal("reduced solve did not materialize concentrations")
	}

	tmp := t.TempDir()
	// The production ladder and cadences, with a fast scan, a 3-check
	// stall bound and the wall-clock criterion off.
	cfg := flightConfig{
		traceEvery: 1, metricPeriod: flightMetricPeriod, maxBundles: flightMaxBundles,
		interval: 2 * time.Millisecond, stallChecks: 3,
		warnAfter: watchdogWarnAfter, dumpAfter: watchdogDumpAfter,
	}
	fl := startFlight(NewManifest(ManifestWorkload{
		Tool: "go-test", Nu: nu, Method: "power", PGrid: []float64{pc},
	}), filepath.Join(tmp, "bundles"), cfg)
	defer fl.Stop()

	op, err := core.NewFmmpOperator(qm, ql, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, serr := core.PowerIteration(op, core.PowerOptions{
		Tol: 1e-30, MaxIter: 50_000_000,
		Start:       exact,
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
	man, err := ReadManifestFile(filepath.Join(stallDir, "manifest.json"))
	if err != nil {
		t.Fatalf("bundle manifest: %v", err)
	}
	if man.RunID != fl.RunID() {
		t.Fatalf("manifest run ID %q != flight run ID %q", man.RunID, fl.RunID())
	}
	if man.Nu != nu || len(man.PGrid) != 1 {
		t.Fatalf("manifest workload = %+v", man)
	}

	prof := InstalledProfiler()
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

// TestFlightWatchdogStallWall exercises the wall-clock stall criterion
// alone: with the check-count bound off, a solve whose residual has not
// improved for longer than the wall bound climbs the ladder to a
// structured warning and a stall bundle.
func TestFlightWatchdogStallWall(t *testing.T) {
	var mu sync.Mutex
	var warns []string
	cfg := quietConfig()
	cfg.interval = 2 * time.Millisecond
	cfg.stallWall = 20 * time.Millisecond
	cfg.warnAfter, cfg.dumpAfter = 1, 2
	cfg.log = func(line string) {
		mu.Lock()
		warns = append(warns, line)
		mu.Unlock()
	}
	f := startFlight(testFlightManifest("testrun-wall"), t.TempDir(), cfg)
	defer f.Stop()

	o := f.Observer("p=wall")
	o.Event(core.EventStart, 0, 0, 0)
	o.Step(1, 2.0, 1e-3) // one improving check, then silence

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
	if len(bundles) == 0 || !strings.HasSuffix(bundles[0], "-stall") {
		t.Fatalf("wall-clock stall dumped bundles %v, want one stall bundle", bundles)
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
	if fields["kind"] != "stall" || fields["run_id"] != "testrun-wall" {
		t.Fatalf("warning fields = %v, want kind=stall run_id=testrun-wall", fields)
	}
	if ms, _ := fields["since_improvement_ms"].(float64); ms < 20 {
		t.Fatalf("stall flagged %vms after the last improvement, want ≥ 20ms", fields["since_improvement_ms"])
	}
	if n, _ := fields["since_improvement"].(float64); n != 0 {
		t.Fatalf("since_improvement = %v, want 0: the check-count criterion is off", fields["since_improvement"])
	}
}

func TestFlightNaNEscalatesImmediately(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var warns []string
	cfg := quietConfig()
	cfg.log = func(line string) {
		mu.Lock()
		warns = append(warns, line)
		mu.Unlock()
	}
	f := startFlight(testFlightManifest("testrun-nan"), dir, cfg)
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
	cfg := quietConfig()
	cfg.traceEvery = 4
	f := startFlight(testFlightManifest("testrun-thin"), t.TempDir(), cfg)
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

// TestFlightTraceThinningSpansGearAttempts: when a sweep point falls
// through to another gear on the same observer, the ring's every-N
// thinning phase runs on across the attempts, as a -trace file's does.
func TestFlightTraceThinningSpansGearAttempts(t *testing.T) {
	cfg := quietConfig()
	cfg.traceEvery = 4
	f := startFlight(testFlightManifest("testrun-gears"), t.TempDir(), cfg)
	defer f.Stop()
	tr := NewTrace(4)

	for _, o := range []interface {
		Step(int, float64, float64)
		Event(string, int, float64, float64)
	}{f.Observer("p=gears"), tr.Recorder("p=gears")} {
		o.Event(core.EventStart, 0, 0, 0)
		for i := 1; i <= 6; i++ {
			o.Step(i, 1.0, 1e-3)
		}
		o.Event(core.EventStagnated, 6, 1.0, 1e-3)
		o.Event(core.EventStart, 0, 0, 0)
		for i := 1; i <= 6; i++ {
			o.Step(i, 1.0, 1.0/float64(i))
		}
		o.Event(core.EventConverged, 6, 1.0, 1.0/6)
	}

	ring, file := f.TraceRows(), tr.Rows()
	if len(ring) != len(file) {
		t.Fatalf("ring kept %d rows, the trace %d", len(ring), len(file))
	}
	for i := range ring {
		if ring[i] != file[i] {
			t.Fatalf("row %d: ring %+v, trace %+v", i, ring[i], file[i])
		}
	}
	// Steps 4, 6 (flushed) of the first gear; 2 (the 8th step), 6
	// (flushed) of the second.
	var iters []int
	for _, r := range ring {
		if r.Event == "" {
			iters = append(iters, r.Iter)
		}
	}
	if want := []int{4, 6, 2, 6}; len(iters) != len(want) ||
		iters[0] != want[0] || iters[1] != want[1] || iters[2] != want[2] || iters[3] != want[3] {
		t.Fatalf("retained step iters %v, want %v", iters, want)
	}
}

func TestFlightObserverReuseRearms(t *testing.T) {
	f := startFlight(testFlightManifest("testrun-reuse"), t.TempDir(), quietConfig())
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
	cfg := quietConfig()
	cfg.maxBundles = 2
	f := startFlight(testFlightManifest("testrun-dump"), dir, cfg)
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
	f := startFlight(testFlightManifest("testrun-err"), t.TempDir(), quietConfig())
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
	f := startFlight(testFlightManifest("testrun-krylov"), t.TempDir(), quietConfig())
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
	f := startFlight(testFlightManifest("testrun-spans"), t.TempDir(), quietConfig())
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
	f := startFlight(testFlightManifest("testrun-status"), t.TempDir(), quietConfig())
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
