package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestTraceThinning(t *testing.T) {
	tr := NewTrace(10)
	rec := tr.Recorder("p=0.01")
	rec.Event("start", 0, 0.05, 0)
	for i := 1; i <= 95; i++ {
		rec.Step(i, 1.5, 1e-3/float64(i))
	}
	rec.Event("converged", 95, 1.5, 1e-5)
	rows := tr.Rows()
	// 9 thinned steps (every 10th of 95), the flushed final step 95, and
	// the 2 events: the terminal event flushes the pending thinned step so
	// the last pre-convergence residual is never lost.
	steps, events := 0, 0
	for _, r := range rows {
		if r.Event == "" {
			steps++
		} else {
			events++
		}
		if r.Label != "p=0.01" {
			t.Fatalf("row label = %q", r.Label)
		}
	}
	if steps != 10 || events != 2 {
		t.Fatalf("got %d steps, %d events; want 10, 2", steps, events)
	}
	// The flushed row is step 95, right before the converged event.
	if rows[len(rows)-2].Iter != 95 || rows[len(rows)-2].Event != "" {
		t.Fatalf("penultimate row = %+v, want flushed step 95", rows[len(rows)-2])
	}
}

func TestTraceThinningFlushesFinalStepOnce(t *testing.T) {
	// When the final step lands exactly on the every-N grid there is
	// nothing pending, so the terminal event must not duplicate it.
	tr := NewTrace(10)
	rec := tr.Recorder("")
	rec.Event("start", 0, 0, 0)
	for i := 1; i <= 90; i++ {
		rec.Step(i, 1, 0.1)
	}
	rec.Event("stagnated", 90, 1, 0.1)
	steps := 0
	for _, r := range tr.Rows() {
		if r.Event == "" {
			steps++
		}
	}
	if steps != 9 {
		t.Fatalf("steps = %d, want 9 (no duplicate flush on grid-aligned final step)", steps)
	}
	// The opening start event must not flush anything either.
	tr2 := NewTrace(10)
	rec2 := tr2.Recorder("")
	rec2.Step(1, 1, 0.5) // thinned away, pending
	rec2.Event("start", 0, 0, 0)
	if got := len(tr2.Rows()); got != 1 {
		t.Fatalf("rows after start = %d, want just the event", got)
	}
	// …but a later terminal event flushes the still-pending step.
	rec2.Event("aborted", 1, 1, 0.5)
	if got := len(tr2.Rows()); got != 3 {
		t.Fatalf("rows after aborted = %d, want pending step + 2 events", got)
	}
}

func TestTraceKeepsAllWithEveryOne(t *testing.T) {
	tr := NewTrace(0) // ≤1 keeps everything
	rec := tr.Recorder("")
	for i := 1; i <= 7; i++ {
		rec.Step(i, 1, 0.1)
	}
	if got := len(tr.Rows()); got != 7 {
		t.Fatalf("rows = %d, want 7", got)
	}
}

func TestTraceConcurrentRecorders(t *testing.T) {
	tr := NewTrace(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := tr.Recorder("w")
			for i := 1; i <= 100; i++ {
				rec.Step(i, 1, 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Rows()); got != 400 {
		t.Fatalf("rows = %d, want 400", got)
	}
}

func TestTraceWriteTSVAndJSONL(t *testing.T) {
	tr := NewTrace(1)
	rec := tr.Recorder("p=0.02")
	rec.Method("power")
	rec.Event("start", 0, 0.0625, 0)
	rec.Step(100, 1.875, 2.5e-4)

	var tsv strings.Builder
	if err := tr.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tsv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("tsv lines = %d, want 3:\n%s", len(lines), tsv.String())
	}
	if lines[0] != "label\titer\tlambda\tresidual\tevent\tmethod" {
		t.Fatalf("tsv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "p=0.02\t0\t") || !strings.HasSuffix(lines[1], "\tstart\tpower") {
		t.Fatalf("tsv event row = %q", lines[1])
	}

	var jl strings.Builder
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	var row TraceRow
	if err := json.Unmarshal([]byte(strings.Split(jl.String(), "\n")[1]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Iter != 100 || row.Lambda != 1.875 || row.Residual != 2.5e-4 || row.Method != "power" {
		t.Fatalf("jsonl row = %+v", row)
	}
}

func TestTraceWriteFileByExtension(t *testing.T) {
	tr := NewTrace(1)
	tr.Recorder("x").Step(1, 1, 0.5)
	dir := t.TempDir()

	tsvPath := filepath.Join(dir, "trace.tsv")
	if err := tr.WriteFile(tsvPath); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(tsvPath)
	if !strings.HasPrefix(string(b), "label\t") {
		t.Fatalf("tsv file content = %q", b)
	}

	jlPath := filepath.Join(dir, "trace.jsonl")
	if err := tr.WriteFile(jlPath); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(jlPath)
	if !strings.HasPrefix(string(b), "{") {
		t.Fatalf("jsonl file content = %q", b)
	}
}

// TestNewTraceStampsFlightRunID: a Trace created during a flight stamps
// the flight's run ID on every row; one created outside a flight stamps
// none.
func TestNewTraceStampsFlightRunID(t *testing.T) {
	outside := NewTrace(1)
	f := StartFlight(testFlightManifest("testrun-trace"), t.TempDir())
	inside := NewTrace(1)
	f.Stop()
	for _, tr := range []*Trace{outside, inside} {
		rec := tr.Recorder("p=0.01")
		rec.Event("start", 0, 0, 0)
		rec.Step(1, 1, 0.5)
		rec.Event("converged", 1, 1, 0.5)
	}
	for _, r := range inside.Rows() {
		if r.RunID != "testrun-trace" {
			t.Fatalf("row of a trace created during the flight: %+v", r)
		}
	}
	for _, r := range outside.Rows() {
		if r.RunID != "" {
			t.Fatalf("row of a trace created outside a flight: %+v", r)
		}
	}
}
