package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"
)

// procStart anchors the /healthz uptime report.
var procStart = time.Now()

// Handler returns the debug mux: /metrics (Prometheus text exposition of
// the default registry), /debug/vars (expvar, including the registry
// snapshot under "qs_solver"), /debug/spans, /debug/flight, the
// net/http/pprof endpoints under /debug/pprof/, and /healthz.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/spans", serveSpans)
	mux.HandleFunc("/debug/flight", serveFlight)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", serveHealthz)
	return mux
}

// healthzPayload identifies the deployment: the manifest's build block
// (Go version, module version, VCS revision, dirty flag), uptime, and —
// when a flight is active — the run ID. Status stays "ok"/200 whenever
// the process can answer at all, so existing `curl -sf /healthz` probes
// keep working.
type healthzPayload struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Build
	RunID string `json:"run_id,omitempty"`

	// Memory summary, so a health probe doubles as a cheap resource check.
	// RSS fields come from procfs and are omitted (with MemReason set) when
	// unavailable; the Go runtime fields work everywhere.
	RSSBytes      int64  `json:"rss_bytes,omitempty"`
	PeakRSSBytes  int64  `json:"rss_peak_bytes,omitempty"`
	MemReason     string `json:"mem_reason,omitempty"`
	HeapBytes     uint64 `json:"heap_bytes"`
	Goroutines    int    `json:"goroutines"`
	LastGCPauseNS uint64 `json:"last_gc_pause_ns"`
}

func serveHealthz(w http.ResponseWriter, _ *http.Request) {
	p := healthzPayload{
		Status:        "ok",
		UptimeSeconds: time.Since(procStart).Seconds(),
		Build:         readBuild(),
		Goroutines:    runtime.NumGoroutine(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.HeapBytes = ms.HeapAlloc
	if ms.NumGC > 0 {
		p.LastGCPauseNS = ms.PauseNs[(ms.NumGC+255)%256]
	}
	if mem := ReadMemStatus(); mem.Available {
		p.RSSBytes = mem.RSSBytes
		p.PeakRSSBytes = mem.PeakRSSBytes
	} else {
		p.MemReason = mem.Reason
	}
	if fl := ActiveFlight(); fl != nil {
		p.RunID = fl.RunID()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p)
}

// serveFlight serves the live flight-recorder status: manifest, ring
// occupancy, recent decisions, dumped bundles. With no flight active it
// reports active=false rather than an error. ?dump=1 additionally dumps a
// bundle (reason "manual") and names it in the response.
func serveFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fl := ActiveFlight()
	if fl == nil {
		_ = json.NewEncoder(w).Encode(flightStatus{Active: false})
		return
	}
	if r.URL.Query().Get("dump") == "1" {
		_, _ = fl.DumpBundle("manual", map[string]any{"trigger": "/debug/flight?dump=1"})
	}
	_ = json.NewEncoder(w).Encode(fl.status())
}

// spansPayload is the /debug/spans JSON shape: the live profiler's exact
// per-site aggregate plus its wall clock.
type spansPayload struct {
	Active  bool       `json:"active"`
	RunID   string     `json:"run_id,omitempty"`
	WallNs  int64      `json:"wall_ns,omitempty"`
	Dropped int64      `json:"dropped_events,omitempty"`
	Spans   []spanJSON `json:"spans"`
}

type spanJSON struct {
	Layer   string `json:"layer"`
	Name    string `json:"span"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// serveSpans serves the live span-profile table: JSON by default,
// the aligned text table (WriteTable) with ?format=text. With no
// profiler installed it reports active=false rather than an error, so
// smoke probes can hit it unconditionally.
func serveSpans(w http.ResponseWriter, r *http.Request) {
	p := InstalledProfiler()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if p == nil {
			fmt.Fprintln(w, "no span profiler installed (run with -spans)")
			return
		}
		_ = p.WriteTable(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	payload := spansPayload{Spans: []spanJSON{}}
	if p != nil {
		payload.Active = true
		payload.RunID = p.RunID()
		payload.WallNs = p.Wall().Nanoseconds()
		payload.Dropped = p.Dropped()
		for _, s := range p.Stats() {
			payload.Spans = append(payload.Spans, spanJSON{
				Layer: s.Layer, Name: s.Name, Count: s.Count,
				TotalNs: s.Total.Nanoseconds(), SelfNs: s.Self.Nanoseconds(),
			})
		}
	}
	_ = json.NewEncoder(w).Encode(payload)
}

var expvarOnce sync.Once

// publishExpvar exposes the default registry under /debug/vars exactly
// once (expvar.Publish panics on duplicates).
func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("qs_solver", expvar.Func(func() any { return Default().Snapshot() }))
	})
}

// DebugServer is a running debug HTTP server. Close releases its listener
// and in-flight connections; earlier versions leaked the listener for the
// life of the process, which made repeated starts in one process (tests,
// embedding programs) accumulate sockets.
type DebugServer struct {
	addr string
	srv  *http.Server
}

// Addr returns the bound listen address (host:port).
func (s *DebugServer) Addr() string { return s.addr }

// Close shuts the server down, closing the listener and any active
// connections. Safe to call more than once.
func (s *DebugServer) Close() error { return s.srv.Close() }

// Serve starts the debug HTTP server on addr (host:port; port 0 picks a
// free port). The caller owns the returned server and should Close it when
// done; tools that serve for the life of the process may ignore it.
func Serve(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	publishExpvar()
	srv := &http.Server{Handler: Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{addr: ln.Addr().String(), srv: srv}, nil
}

// StartDebugServer is the one-call tool entry point behind the shared
// -debug-addr flag: it enables the solver metrics (EnableSolverMetrics) and
// starts the debug server.
func StartDebugServer(addr string) (*DebugServer, error) {
	EnableSolverMetrics()
	return Serve(addr)
}
