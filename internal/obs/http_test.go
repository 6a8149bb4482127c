package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
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
