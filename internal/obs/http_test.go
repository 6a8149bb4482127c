package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/span"
)

// TestDebugServerCloseReleasesListener guards the shutdown handle: Close
// must actually release the socket (the old API leaked the listener for the
// life of the process), be idempotent, and leave the port rebindable.
func TestDebugServerCloseReleasesListener(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("server not reachable before Close: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if conn, err := net.Dial("tcp", srv.Addr()); err == nil {
		conn.Close()
		t.Fatal("listener still accepting connections after Close")
	}
	ln, err := net.Listen("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("port not released after Close: %v", err)
	}
	ln.Close()
}

// TestDebugSpansEndpoint smoke-tests /debug/spans in both formats,
// with and without an installed profiler.
func TestDebugSpansEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// No profiler installed: active=false, not an error.
	if p := InstalledProfiler(); p != nil {
		p.Stop()
	}
	code, body := get("/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans status = %d", code)
	}
	var idle spansPayload
	if err := json.Unmarshal([]byte(body), &idle); err != nil || idle.Active {
		t.Fatalf("idle payload = %q err=%v", body, err)
	}

	p := StartSpanProfiler(0)
	defer p.Stop()
	span.End(span.Begin(span.LayerCore, "matvec"), 7, 0)

	code, body = get("/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans status = %d", code)
	}
	var live spansPayload
	if err := json.Unmarshal([]byte(body), &live); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !live.Active || len(live.Spans) != 1 || live.Spans[0].Name != "matvec" || live.Spans[0].Count != 1 {
		t.Errorf("live payload = %+v", live)
	}

	code, body = get("/debug/spans?format=text")
	if code != http.StatusOK || !strings.Contains(body, "matvec") || !strings.Contains(body, "layer") {
		t.Errorf("text format: status=%d body:\n%s", code, body)
	}
}

// TestHealthzBuildMatchesManifest: /healthz serves the manifest's build
// block, field for field.
func TestHealthzBuildMatchesManifest(t *testing.T) {
	rec := httptest.NewRecorder()
	serveHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	var p healthzPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	want := NewManifest(ManifestWorkload{Tool: "qs-test"}).Build
	if p.Build != want || p.GoVersion == "" {
		t.Fatalf("/healthz build = %+v, manifest build = %+v", p.Build, want)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["go_version"]; !ok {
		t.Fatalf("/healthz has no go_version key: %s", rec.Body.Bytes())
	}
}

// TestHealthzMemorySummary: /healthz doubles as a cheap resource probe —
// runtime fields everywhere, RSS fields (or one reason) from procfs — and
// reports nothing beyond its build block and that summary.
func TestHealthzMemorySummary(t *testing.T) {
	rec := httptest.NewRecorder()
	serveHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
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
	// The payload's keys are exactly the build block's plus the summary
	// above: nothing else rides along.
	allowed := map[string]bool{
		"status": true, "uptime_seconds": true, "run_id": true,
		"rss_bytes": true, "rss_peak_bytes": true, "mem_reason": true,
		"heap_bytes": true, "goroutines": true, "last_gc_pause_ns": true,
	}
	var keys map[string]json.RawMessage
	build, _ := json.Marshal(p.Build)
	if err := json.Unmarshal(build, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		allowed[k] = true
	}
	keys = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if !allowed[k] {
			t.Errorf("/healthz reports unexpected key %q: %s", k, rec.Body.Bytes())
		}
	}
}
