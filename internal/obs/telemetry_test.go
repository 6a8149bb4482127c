package obs

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTelemetryEndpointLifecycle exercises /debug/telemetry across the whole
// sampler lifecycle in one test, because StartResourceSampler claims a
// process-wide slot that is never released: first the inactive responses
// (JSON active=false and the single text notice), then a live sampler at a
// fast period, asserting the acceptance bar — at least three distinct
// non-empty series — plus the text table and the point/window query knobs.
func TestTelemetryEndpointLifecycle(t *testing.T) {
	if ActiveSampler() != nil {
		t.Fatal("a sampler is already running; inactive half of this test needs a fresh process")
	}

	// Inactive, JSON: active=false with the notice, not an HTTP error.
	rec := httptest.NewRecorder()
	serveTelemetry(rec, httptest.NewRequest("GET", "/debug/telemetry", nil))
	if rec.Code != 200 {
		t.Fatalf("inactive status = %d", rec.Code)
	}
	var inactive telemetryPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &inactive); err != nil {
		t.Fatal(err)
	}
	if inactive.Active || inactive.Notice != telemetryInactiveNotice {
		t.Fatalf("inactive payload = %+v", inactive)
	}
	if inactive.Series == nil {
		t.Fatal("inactive payload omits the series array")
	}

	// Inactive, text: exactly the one notice line.
	rec = httptest.NewRecorder()
	serveTelemetry(rec, httptest.NewRequest("GET", "/debug/telemetry?format=text", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != telemetryInactiveNotice {
		t.Fatalf("inactive text = %q", got)
	}

	s := StartResourceSampler(SamplerConfig{Period: 20 * time.Millisecond, Capacity: 64})
	defer s.Stop()
	if StartResourceSampler(SamplerConfig{}) != s {
		t.Fatal("second StartResourceSampler did not return the running sampler")
	}

	// Wait for a few ticks so windowed aggregates have ≥ 2 points.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.Get("runtime.heap_bytes").Snapshot()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler produced < 3 ticks in 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	rec = httptest.NewRecorder()
	serveTelemetry(rec, httptest.NewRequest("GET", "/debug/telemetry", nil))
	var p telemetryPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Active || p.PeriodSeconds != 0.02 {
		t.Fatalf("active payload: active=%v period=%g", p.Active, p.PeriodSeconds)
	}
	if p.State == nil || p.State.TickUnixNS == 0 {
		t.Fatal("no sampler state published")
	}
	nonEmpty := map[string]bool{}
	for _, sp := range p.Series {
		if len(sp.Points) > 0 {
			nonEmpty[sp.Name] = true
		}
	}
	// The acceptance bar: ≥ 3 distinct non-empty series. Runtime + solver
	// series fill on every OS; on Linux the mem.* series join them.
	for _, name := range []string{"runtime.heap_bytes", "runtime.goroutines", "batch.done_total", "batch.inflight"} {
		if !nonEmpty[name] {
			t.Errorf("series %s has no points", name)
		}
	}
	if len(nonEmpty) < 3 {
		t.Fatalf("only %d non-empty series: %v", len(nonEmpty), nonEmpty)
	}
	if runtime.GOOS == "linux" && !nonEmpty["mem.rss_bytes"] {
		t.Error("mem.rss_bytes empty on Linux")
	}

	// ?points=0 keeps the aggregates but drops the point arrays.
	rec = httptest.NewRecorder()
	serveTelemetry(rec, httptest.NewRequest("GET", "/debug/telemetry?points=0", nil))
	var agg telemetryPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
		t.Fatal(err)
	}
	for _, sp := range agg.Series {
		if len(sp.Points) != 0 {
			t.Fatalf("points=0 still exported %d points for %s", len(sp.Points), sp.Name)
		}
	}
	var heapWin *WindowStats
	for _, sp := range agg.Series {
		if sp.Name == "runtime.heap_bytes" {
			heapWin = sp.Window
		}
	}
	if heapWin == nil || heapWin.Points < 3 || heapWin.Max <= 0 {
		t.Fatalf("runtime.heap_bytes window = %+v", heapWin)
	}

	// ?points=2 caps the export to the newest points.
	rec = httptest.NewRecorder()
	serveTelemetry(rec, httptest.NewRequest("GET", "/debug/telemetry?points=2", nil))
	var capped telemetryPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &capped); err != nil {
		t.Fatal(err)
	}
	for _, sp := range capped.Series {
		if len(sp.Points) > 2 {
			t.Fatalf("points=2 exported %d points for %s", len(sp.Points), sp.Name)
		}
	}

	// Text table: header plus one row per non-empty series, with sparklines.
	rec = httptest.NewRecorder()
	serveTelemetry(rec, httptest.NewRequest("GET", "/debug/telemetry?format=text", nil))
	text := rec.Body.String()
	for _, want := range []string{"SERIES", "TREND", "runtime.heap_bytes", "▁"} {
		if !strings.Contains(text, want) {
			t.Errorf("text table missing %q:\n%s", want, text)
		}
	}

	// JSONL export carries every non-empty series.
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"series":"runtime.heap_bytes"`) {
		t.Fatalf("JSONL export missing runtime.heap_bytes:\n%.400s", sb.String())
	}
}

// TestHealthzMemorySummary: /healthz doubles as a cheap resource probe —
// runtime fields everywhere, RSS fields (or one reason) from procfs.
func TestHealthzMemorySummary(t *testing.T) {
	rec := httptest.NewRecorder()
	serveHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var p healthzPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Status != "ok" {
		t.Fatalf("status = %q", p.Status)
	}
	if p.HeapBytes == 0 || p.Goroutines < 1 {
		t.Fatalf("runtime summary: heap=%d goroutines=%d", p.HeapBytes, p.Goroutines)
	}
	if runtime.GOOS == "linux" {
		if p.RSSBytes <= 0 || p.PeakRSSBytes < p.RSSBytes {
			t.Fatalf("rss summary: rss=%d peak=%d (reason %q)", p.RSSBytes, p.PeakRSSBytes, p.MemReason)
		}
	} else if p.MemReason == "" {
		t.Fatal("no RSS and no reason")
	}
}

// tableRow returns the text-table line of the named series.
func tableRow(t *testing.T, table, name string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("no %s row in table:\n%s", name, table)
	return ""
}

// TestTelemetryTableTrendHonorsWindow: ?window= restricts every column,
// the TREND sparkline included, to the points at or after the cutoff.
func TestTelemetryTableTrendHonorsWindow(t *testing.T) {
	s := newSampler(SamplerConfig{Capacity: 16})
	ts := s.Get("runtime.goroutines")
	base := time.Now()
	for i, v := range []float64{100, 0, 100, 0} {
		ts.Append(base.Add(time.Duration(i-10)*time.Second), v)
	}
	for i, v := range []float64{1, 2, 3} {
		ts.Append(base.Add(time.Duration(i-2)*time.Second), v)
	}
	var sb strings.Builder
	if err := writeTelemetryTable(&sb, s, base.Add(-5*time.Second)); err != nil {
		t.Fatal(err)
	}
	row := tableRow(t, sb.String(), "runtime.goroutines")
	if want := "  " + sparkline([]float64{1, 2, 3}, 24); !strings.HasSuffix(row, want) {
		t.Fatalf("TREND covers points outside the window:\n%q\nwant suffix %q", row, want)
	}
	if f := strings.Fields(row); f[1] != "3" || f[2] != "1" || f[3] != "3" {
		t.Fatalf("LAST/MIN/MAX = %v, want 3 1 3", f[1:4])
	}
}

// TestTelemetryTableStateLines: the text table reports a memory read
// failure by its reason and the scheduler's task progress once tasks
// are planned.
func TestTelemetryTableStateLines(t *testing.T) {
	s := newSampler(SamplerConfig{Capacity: 16})
	s.last.Store(&SamplerState{
		Mem:    MemStatus{Reason: "no /proc/self/status"},
		Solver: SolverResources{BatchPlanned: 10, BatchDone: 4, BatchInflight: 2},
	})
	var sb strings.Builder
	if err := writeTelemetryTable(&sb, s, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nmem unavailable: no /proc/self/status\n",
		"\ntasks 4/10 (2 in flight)\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, sb.String())
		}
	}

	// No planned tasks: no tasks line.
	s.last.Store(&SamplerState{Mem: MemStatus{Available: true, RSSBytes: 1 << 20, PeakRSSBytes: 2 << 20}})
	sb.Reset()
	if err := writeTelemetryTable(&sb, s, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "tasks ") || !strings.Contains(sb.String(), "\nrss 1.0MiB (peak 2.0MiB)") {
		t.Fatalf("table with no planned tasks:\n%s", sb.String())
	}
}
