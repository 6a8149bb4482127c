package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/span"
)

func spanStat(t *testing.T, p *SpanProfiler, layer, name string) SpanStat {
	t.Helper()
	for _, s := range p.Stats() {
		if s.Layer == layer && s.Name == name {
			return s
		}
	}
	t.Fatalf("no aggregate for %s/%s", layer, name)
	return SpanStat{}
}

func TestSpanNestingAndSelfTime(t *testing.T) {
	p := StartSpanProfiler(0)
	defer p.Stop()

	outer := span.Begin(span.LayerCore, "power")
	time.Sleep(2 * time.Millisecond)
	inner := span.Begin(span.LayerMutation, "apply")
	time.Sleep(4 * time.Millisecond)
	span.End(inner, 12, 1)
	span.End(outer, 4096, 0)
	p.Stop()

	solve := spanStat(t, p, span.LayerCore, "power")
	apply := spanStat(t, p, span.LayerMutation, "apply")
	if solve.Count != 1 || apply.Count != 1 {
		t.Fatalf("counts: solve=%d apply=%d", solve.Count, apply.Count)
	}
	if solve.Total < apply.Total {
		t.Errorf("outer total %v < inner total %v", solve.Total, apply.Total)
	}
	// Self time of the outer span excludes the inner span entirely.
	if got, want := solve.Self, solve.Total-apply.Total; got != want {
		t.Errorf("outer self = %v, want total-child = %v", got, want)
	}
	if apply.Self != apply.Total {
		t.Errorf("leaf self = %v, want its total %v", apply.Self, apply.Total)
	}
	rows := p.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Completion order: inner ends first; both on the same track.
	if rows[0].Name != "apply" || rows[1].Name != "power" {
		t.Errorf("row order: %s, %s", rows[0].Name, rows[1].Name)
	}
	if rows[0].TID != rows[1].TID {
		t.Errorf("tids differ: %d vs %d", rows[0].TID, rows[1].TID)
	}
	if rows[1].Start > rows[0].Start || rows[1].Start+rows[1].Dur < rows[0].Start+rows[0].Dur {
		t.Errorf("outer [%v,+%v] does not contain inner [%v,+%v]",
			rows[1].Start, rows[1].Dur, rows[0].Start, rows[0].Dur)
	}
	if rows[1].A1 != 4096 || rows[0].A1 != 12 || rows[0].A2 != 1 {
		t.Errorf("args: %+v, %+v", rows[0], rows[1])
	}
}

func TestSpanRecordChargesOpenParent(t *testing.T) {
	p := StartSpanProfiler(0)
	defer p.Stop()

	h := span.Begin(span.LayerDevice, "stages")
	time.Sleep(time.Millisecond)
	p.Record(span.LayerDevice, "queue_wait", 500*time.Microsecond, 3, 0)
	span.End(h, 1024, 4)
	p.Stop()

	launch := spanStat(t, p, span.LayerDevice, "stages")
	wait := spanStat(t, p, span.LayerDevice, "queue_wait")
	if wait.Total != 500*time.Microsecond || wait.Self != wait.Total {
		t.Errorf("queue_wait aggregate = %+v", wait)
	}
	if got, want := launch.Self, launch.Total-wait.Total; got != want {
		t.Errorf("launch self = %v, want %v (wait charged as child)", got, want)
	}
	// A negative post-hoc duration is clamped, not accounted backwards.
	p2 := NewSpanProfiler(0)
	p2.Record("device", "queue_wait", -time.Second, 0, 0)
	if s := spanStat(t, p2, "device", "queue_wait"); s.Total != 0 || s.Count != 1 {
		t.Errorf("negative duration record: %+v", s)
	}
}

func TestSpanBufferBoundKeepsAggregatesExact(t *testing.T) {
	p := StartSpanProfiler(4)
	defer p.Stop()
	for i := 0; i < 10; i++ {
		span.End(span.Begin(span.LayerCore, "matvec"), int64(i), 0)
	}
	p.Stop()
	if got := len(p.Rows()); got != 4 {
		t.Errorf("buffered rows = %d, want 4", got)
	}
	if got := p.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	if s := spanStat(t, p, span.LayerCore, "matvec"); s.Count != 10 {
		t.Errorf("aggregate count = %d, want 10 despite drops", s.Count)
	}
}

func TestSpanConcurrentGoroutinesGetDistinctTracks(t *testing.T) {
	p := StartSpanProfiler(0)
	defer p.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := span.Begin(span.LayerBatch, "task")
			inner := span.Begin(span.LayerCore, "power")
			span.End(inner, 0, 0)
			span.End(h, 0, 0)
		}()
	}
	wg.Wait()
	p.Stop()
	if s := spanStat(t, p, span.LayerBatch, "task"); s.Count != 4 {
		t.Fatalf("task count = %d", s.Count)
	}
	tids := map[int64]bool{}
	for _, r := range p.Rows() {
		if r.Layer == span.LayerBatch {
			tids[r.TID] = true
		}
	}
	if len(tids) != 4 {
		t.Errorf("distinct tids = %d, want 4", len(tids))
	}
}

// chromeTraceEvent is one parsed event of WriteChromeTrace's output.
type chromeTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// readChromeTrace exports p's spans and parses them back.
func readChromeTrace(t *testing.T, p *SpanProfiler) []chromeTraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents     []chromeTraceEvent `json:"traceEvents"`
		DisplayTimeUnit string             `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return tr.TraceEvents
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	p := StartSpanProfiler(0)
	defer p.Stop()
	outer := span.Begin(span.LayerCore, "power")
	inner := span.Begin(span.LayerMutation, "apply")
	span.End(inner, 14, 0)
	span.End(outer, 16384, 0)
	p.Stop()

	events := readChromeTrace(t, p)
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID == 0 || ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("malformed event: %+v", ev)
		}
	}
	// Named args: the mutation apply span carries its stage count only.
	for _, ev := range events {
		if ev.Cat == "mutation" {
			if ev.Args["stages"] != float64(14) || len(ev.Args) != 1 {
				t.Errorf("mutation args = %v", ev.Args)
			}
		}
	}

	// A real shift-invert Lanczos solve and gap probe: the solve span closes
	// with (dim, matvecs) and the probe with (dim, steps built).
	const nu, probeSteps = 8, 6
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(mutation.MustUniform(nu, 0.02), l, core.Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	p = StartSpanProfiler(0)
	res, err := core.ShiftInvertLanczos(op, core.ShiftInvertOptions{Tol: 1e-10, Shift: core.UpperBoundLambda(l)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.RitzGap(op, probeSteps, nil, nil); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	want := map[string]map[string]any{
		core.SolveKindShiftInvert: {"dim": float64(op.Dim()), "matvecs": float64(res.MatVecs)},
		core.PhaseGapProbe:        {"dim": float64(op.Dim()), "steps": float64(probeSteps)},
	}
	seen := map[string]bool{}
	for _, ev := range readChromeTrace(t, p) {
		args, ok := want[ev.Name]
		if ev.Cat != span.LayerCore || !ok {
			continue
		}
		seen[ev.Name] = true
		if !reflect.DeepEqual(ev.Args, args) {
			t.Errorf("%s args = %v, want %v", ev.Name, ev.Args, args)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("no %s span in the trace", name)
		}
	}
}

func TestSpanWriteTable(t *testing.T) {
	p := StartSpanProfiler(0)
	defer p.Stop()
	span.End(span.Begin(span.LayerCore, "matvec"), 1, 0)
	p.Stop()
	var buf bytes.Buffer
	if err := p.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"layer", "span", "self", "matvec", "wall "} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestStopUninstallsRecorder(t *testing.T) {
	p := StartSpanProfiler(0)
	if span.Installed() != span.Recorder(p) || InstalledProfiler() != p {
		t.Fatal("StartSpanProfiler did not install the profiler as the span recorder")
	}
	p.Stop()
	if span.Enabled() || InstalledProfiler() != nil {
		t.Fatal("recorder still installed after Stop")
	}
	if p.Wall() <= 0 {
		t.Errorf("wall = %v", p.Wall())
	}
	// Wall is frozen by Stop.
	w1 := p.Wall()
	time.Sleep(2 * time.Millisecond)
	if w2 := p.Wall(); w2 != w1 {
		t.Errorf("wall moved after Stop: %v -> %v", w1, w2)
	}

	// Stopping a superseded profile leaves the newer one installed.
	older := StartSpanProfiler(0)
	newer := StartSpanProfiler(0)
	defer newer.Stop()
	older.Stop()
	if InstalledProfiler() != newer {
		t.Fatal("stopping a superseded profile uninstalled the newer one")
	}
}

// TestArnoldiSolveReports: an Arnoldi solve reports through the same
// ledger as the other eigensolvers — one core/arnoldi solve span, ending
// with the operator's dimension and the solve's matvec count.
func TestArnoldiSolveReports(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(mutation.MustUniform(nu, 0.01), l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := StartSpanProfiler(0)
	res, err := core.Arnoldi(op, core.ArnoldiOptions{Tol: 1e-12})
	p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if s := spanStat(t, p, span.LayerCore, core.SolveKindArnoldi); s.Count != 1 {
		t.Errorf("arnoldi solve spans = %d, want 1", s.Count)
	}
	for _, r := range p.Rows() {
		if r.Layer == span.LayerCore && r.Name == core.SolveKindArnoldi &&
			(r.A1 != int64(op.Dim()) || r.A2 != int64(res.MatVecs)) {
			t.Errorf("arnoldi solve span ends with (%d, %d), want (%d, %d)", r.A1, r.A2, op.Dim(), res.MatVecs)
		}
	}
}
