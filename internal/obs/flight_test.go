package obs

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

// TraceRows returns a copy of the retained trace-ring rows.
func (f *FlightRecorder) TraceRows() []TraceRow { return f.trace.snapshot() }

// Spans returns a copy of the retained span-ring events.
func (f *FlightRecorder) Spans() []SpanRow { return f.spans.snapshot() }

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

// TestFlightStallAcceptance is the flight recorder's end-to-end check: a
// power solve pinned at the error threshold (ν = 14, p ≈ p_c) is forced
// to stall — it starts from the already-converged eigenvector with an
// unattainable tolerance, so the residual sits at the floating-point
// floor from the first check — and the convergence ledger stops it with
// ErrStagnated. DumpOnError must turn that decision into one
// convergence_error bundle whose run ID matches the manifest, the span
// profile and the trace rows, and whose trace ends on the stagnated event.
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

	fl := StartFlight(NewManifest(ManifestWorkload{
		Tool: "go-test", Nu: nu, Method: "power", PGrid: []float64{pc},
	}), filepath.Join(t.TempDir(), "bundles"))
	defer fl.Stop()

	op, err := core.NewFmmpOperator(qm, ql, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, serr := core.PowerIteration(op, core.PowerOptions{
		Tol: 1e-30, Start: exact, Observer: fl.Observer("p=pc"),
	})
	if !errors.Is(serr, core.ErrStagnated) {
		t.Fatalf("the forced-stall solve returned %v, want ErrStagnated", serr)
	}
	dir, ok := fl.DumpOnError(serr)
	if !ok || !strings.HasSuffix(dir, "-001-convergence_error") {
		t.Fatalf("DumpOnError = (%q, %v), want the first convergence_error bundle", dir, ok)
	}
	for _, name := range []string{
		ManifestName, "spans.jsonl", "trace.jsonl", "decisions.jsonl",
		"goroutines.txt", "profile.txt", "chrome_trace.json", "error.json", "dump.json",
	} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("bundle %s missing or empty (err=%v)", name, err)
		}
	}

	// Run-ID consistency: manifest ↔ span profile ↔ trace rows.
	man, err := ReadManifestFile(filepath.Join(dir, ManifestName))
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
	rows := readTraceJSONL(t, filepath.Join(dir, "trace.jsonl"))
	if len(rows) == 0 {
		t.Fatal("bundle trace.jsonl is empty")
	}
	for i, r := range rows {
		if r.RunID != fl.RunID() {
			t.Fatalf("trace row %d run ID %q != %q", i, r.RunID, fl.RunID())
		}
	}
	if last := rows[len(rows)-1]; last.Event != core.EventStagnated || last.Method != core.SolveKindPower {
		t.Fatalf("last trace row = %+v, want the power solve's stagnated event", last)
	}
	var back core.ConvergenceError
	data, err := os.ReadFile(filepath.Join(dir, "error.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil || !errors.Is(&back, core.ErrStagnated) {
		t.Fatalf("error.json = %s (err %v), want reason stagnated", data, err)
	}
}

// bundleTraceRow is the part of a bundle's trace.jsonl row the tests read
// (a breakdown's residual is the string "NaN", which TraceRow's float
// fields cannot decode).
type bundleTraceRow struct {
	RunID  string `json:"run_id"`
	Label  string `json:"label"`
	Event  string `json:"event"`
	Method string `json:"method"`
}

// readTraceJSONL decodes a bundle's trace.jsonl.
func readTraceJSONL(t *testing.T, path string) []bundleTraceRow {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var rows []bundleTraceRow
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		var r bundleTraceRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("trace row %d: %v", len(rows), err)
		}
		rows = append(rows, r)
	}
	return rows
}

// nanOp writes one NaN into its output from application `after` on.
type nanOp struct {
	core.Operator
	after, applied int
}

func (o *nanOp) Apply(dst, src []float64) {
	o.Operator.Apply(dst, src)
	if o.applied++; o.applied >= o.after {
		dst[0] = math.NaN()
	}
}

// TestBreakdownIsTypedAndDumped: a NaN in the iterate is a breakdown,
// which power, Chebyshev and Lanczos report through the ledger as a
// *core.ConvergenceError with reason ErrBreakdown at the first non-finite
// check. The error survives its JSON round trip with the NaN residual, and
// DumpOnError dumps a bundle whose trace ends on the breakdown event.
func TestBreakdownIsTypedAndDumped(t *testing.T) {
	fl := StartFlight(testFlightManifest("testrun-breakdown"), t.TempDir())
	defer fl.Stop()

	const nu = 6 // a 64-dimension operator
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := core.NewFmmpOperator(mutation.MustUniform(nu, 0.01), l, core.Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method string
		solve  func(op core.Operator, o core.Observer) error
	}{
		{core.SolveKindPower, func(op core.Operator, o core.Observer) error {
			_, err := core.PowerIteration(op, core.PowerOptions{Tol: 1e-30, Observer: o})
			return err
		}},
		{core.SolveKindChebyshev, func(op core.Operator, o core.Observer) error {
			_, err := core.ChebyshevIteration(op, core.ChebyshevOptions{
				Tol: 1e-30, LowerEdge: 0, UpperEdge: 1.5, Observer: o,
			})
			return err
		}},
		{core.SolveKindLanczos, func(op core.Operator, o core.Observer) error {
			_, err := core.Lanczos(op, core.LanczosOptions{Tol: 1e-30, Observer: o})
			return err
		}},
	} {
		serr := c.solve(&nanOp{Operator: sym, after: 3}, fl.Observer("p="+c.method))
		var ce *core.ConvergenceError
		if !errors.As(serr, &ce) || !errors.Is(serr, core.ErrBreakdown) {
			t.Fatalf("%s: err = %v, want a ConvergenceError with ErrBreakdown", c.method, serr)
		}
		if ce.Method != c.method || ce.Iterations > 100 {
			t.Fatalf("%s: ConvergenceError = %+v, want its method, stopped at once", c.method, ce)
		}
		data, err := json.Marshal(ce)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.method, err)
		}
		var back core.ConvergenceError
		if err := json.Unmarshal(data, &back); err != nil || !errors.Is(&back, core.ErrBreakdown) ||
			!strings.Contains(string(data), `"reason":"breakdown"`) ||
			math.Float64bits(back.Residual) != math.Float64bits(ce.Residual) {
			t.Fatalf("%s: JSON round trip %s → %+v (err %v)", c.method, data, back, err)
		}
		dir, ok := fl.DumpOnError(serr)
		if !ok {
			t.Fatalf("%s: DumpOnError dumped no bundle", c.method)
		}
		if _, err := os.Stat(filepath.Join(dir, "error.json")); err != nil {
			t.Fatalf("%s: error.json: %v", c.method, err)
		}
		rows := readTraceJSONL(t, filepath.Join(dir, "trace.jsonl"))
		if last := rows[len(rows)-1]; last.Event != core.EventBreakdown || last.Label != "p="+c.method {
			t.Fatalf("%s: last trace row = %+v, want its breakdown event", c.method, last)
		}
	}
}

// TestArnoldiBreakdownIsTypedAndDumped: Arnoldi stops at the first
// non-finite Ritz residual as a typed breakdown too — within its first
// restart cycle (one basis of 24 applications plus the residual's), not
// after ten cycles of a NaN iterate reported as a stall — and the error
// dumps a bundle with its error.json.
func TestArnoldiBreakdownIsTypedAndDumped(t *testing.T) {
	fl := StartFlight(testFlightManifest("testrun-arnoldi-breakdown"), t.TempDir())
	defer fl.Stop()

	const nu = 6
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := core.NewFmmpOperator(mutation.MustUniform(nu, 0.01), l, core.Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, serr := core.Arnoldi(&nanOp{Operator: sym, after: 3}, core.ArnoldiOptions{Tol: 1e-30})
	var ce *core.ConvergenceError
	if !errors.As(serr, &ce) || !errors.Is(serr, core.ErrBreakdown) {
		t.Fatalf("err = %v, want a ConvergenceError with ErrBreakdown", serr)
	}
	if ce.Method != core.SolveKindArnoldi || res.MatVecs > 26 || ce.Iterations != res.MatVecs {
		t.Fatalf("ConvergenceError = %+v after %d matvecs, want arnoldi's, stopped in its first cycle", ce, res.MatVecs)
	}
	dir, ok := fl.DumpOnError(serr)
	if !ok {
		t.Fatal("DumpOnError dumped no bundle")
	}
	if _, err := os.Stat(filepath.Join(dir, "error.json")); err != nil {
		t.Fatalf("error.json: %v", err)
	}
}

func TestFlightTraceThinning(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-thin"), t.TempDir())
	defer f.Stop()

	o := f.Observer("p=thin")
	o.Method(core.SolveKindPower)
	o.Event(core.EventStart, 0, 0, 0)
	for i := 1; i <= 40; i++ {
		o.Step(i, 1.0, 1.0/float64(i))
	}
	o.Event(core.EventConverged, 40, 1.0, 1.0/40)

	rows := f.TraceRows()
	var iters []int
	for _, r := range rows {
		if r.Event == "" {
			iters = append(iters, r.Iter)
		}
		if r.RunID != "testrun-thin" || r.Method != core.SolveKindPower {
			t.Fatalf("trace row missing run ID or method: %+v", r)
		}
	}
	// Kept: every 16th step (16, 32) plus the pending step 40 flushed by
	// the terminal event; the start and terminal rows are never thinned.
	want := []int{16, 32, 40}
	if len(iters) != len(want) {
		t.Fatalf("retained step iters %v, want %v", iters, want)
	}
	for i := range want {
		if iters[i] != want[i] {
			t.Fatalf("retained step iters %v, want %v", iters, want)
		}
	}
	if first := rows[0]; first.Event != core.EventStart {
		t.Fatalf("first row = %+v, want the start event", first)
	}
	last := rows[len(rows)-1]
	if last.Event != core.EventConverged || last.Iter != 40 {
		t.Fatalf("last row = %+v, want converged event at iter 40", last)
	}
}

// TestFlightTraceThinningSpansGearAttempts: when a sweep point falls
// through to another gear on the same observer, the ring's every-16
// thinning phase runs on across the attempts, as a -trace file's does.
func TestFlightTraceThinningSpansGearAttempts(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-gears"), t.TempDir())
	defer f.Stop()
	tr := NewTrace(flightTraceEvery)

	for _, o := range []*TraceRecorder{f.Observer("p=gears"), tr.Recorder("p=gears")} {
		o.Method(core.SolveKindPower)
		o.Event(core.EventStart, 0, 0, 0)
		for i := 1; i <= 20; i++ {
			o.Step(i, 1.0, 1e-3)
		}
		o.Event(core.EventStagnated, 20, 1.0, 1e-3)
		o.Method(core.SolveKindChebyshev)
		o.Event(core.EventStart, 0, 0, 0)
		for i := 1; i <= 20; i++ {
			o.Step(i, 1.0, 1.0/float64(i))
		}
		o.Event(core.EventConverged, 20, 1.0, 1.0/20)
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
	// Steps 16, 20 (flushed) of the first gear; 12 (the 32nd step), 20
	// (flushed) of the second.
	var iters []int
	for _, r := range ring {
		if r.Event == "" {
			iters = append(iters, r.Iter)
		}
	}
	if want := []int{16, 20, 12, 20}; len(iters) != len(want) ||
		iters[0] != want[0] || iters[1] != want[1] || iters[2] != want[2] || iters[3] != want[3] {
		t.Fatalf("retained step iters %v, want %v", iters, want)
	}
}

func TestDumpBundleContentsAndCap(t *testing.T) {
	dir := t.TempDir()
	f := StartFlight(testFlightManifest("testrun-dump"), dir)
	defer f.Stop()

	f.NoteDecision("point", "p=0.03", "method=power start=cold", 0)
	first, err := f.DumpBundle("manual", map[string]any{"trigger": "test"})
	if err != nil {
		t.Fatalf("DumpBundle: %v", err)
	}
	for _, name := range []string{
		ManifestName, "spans.jsonl", "trace.jsonl", "decisions.jsonl",
		"goroutines.txt", "dump.json",
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

	for i := 2; i <= flightMaxBundles; i++ {
		if _, err := f.DumpBundle("manual", nil); err != nil {
			t.Fatalf("DumpBundle %d: %v", i, err)
		}
	}
	capped, err := f.DumpBundle("manual", nil)
	if err != nil {
		t.Fatalf("capped DumpBundle: %v", err)
	}
	if capped != "" {
		t.Fatalf("bundle %q dumped past the cap of %d", capped, flightMaxBundles)
	}
	if got := len(f.Bundles()); got != flightMaxBundles {
		t.Fatalf("Bundles() has %d entries, want %d", got, flightMaxBundles)
	}
}

func TestDumpOnError(t *testing.T) {
	f := StartFlight(testFlightManifest("testrun-err"), t.TempDir())
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

func TestDumpOnErrorFromKrylovSolves(t *testing.T) {
	// Under an unattainable tolerance a Lanczos or shift-invert Lanczos
	// solve exhausts its restarts and an Arnoldi solve stagnates; each fails
	// with a typed *core.ConvergenceError, which a flight recording dumps as
	// a bundle.
	f := StartFlight(testFlightManifest("testrun-krylov"), t.TempDir())
	defer f.Stop()

	// N = 8 keeps Lanczos's thousand restarts cheap; the shift 2.5 lies
	// above f_max = 2 ≥ λ₀.
	l, err := landscape.NewSinglePeak(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(mutation.MustUniform(3, 0.01), l, core.Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, lerr := core.Lanczos(op, core.LanczosOptions{Tol: 1e-30})
	_, aerr := core.Arnoldi(op, core.ArnoldiOptions{Tol: 1e-30})
	_, serr := core.ShiftInvertLanczos(op, core.ShiftInvertOptions{Tol: 1e-30, Shift: 2.5})
	for _, c := range []struct {
		err    error
		method string
		reason error
	}{
		{lerr, core.SolveKindLanczos, core.ErrNoConvergence},
		{aerr, "arnoldi", core.ErrStagnated},
		{serr, core.SolveKindShiftInvert, core.ErrNoConvergence},
	} {
		var ce *core.ConvergenceError
		if !errors.As(c.err, &ce) {
			t.Fatalf("%s: err = %v (%T), want *core.ConvergenceError", c.method, c.err, c.err)
		}
		if ce.Method != c.method || ce.Iterations == 0 || ce.Tol != 1e-30 ||
			!(ce.BestResidual <= ce.Residual) || !errors.Is(c.err, c.reason) {
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
	f := StartFlight(testFlightManifest("testrun-spans"), t.TempDir())
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
	f := StartFlight(testFlightManifest("testrun-status"), t.TempDir())
	defer f.Stop()
	f.NoteDecision("point", "p=0.01", "method=power start=warm", 3)
	st := f.status()
	if !st.Active || st.RunID != "testrun-status" {
		t.Fatalf("status = %+v", st)
	}
	if st.Decisions.Total != 1 || len(st.Recent) != 1 {
		t.Fatalf("status decisions = %+v recent=%d", st.Decisions, len(st.Recent))
	}
}
