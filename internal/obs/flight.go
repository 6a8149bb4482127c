package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// Flight recorder: the black box of a solver run. While a flight is
// active it retains — in fixed-size rings, with zero allocation on the
// hot paths — the most recent span events, thinned convergence-trace rows
// and the callers' decision rows. It detects nothing itself: a bundle
// (manifest + ring contents + goroutine dump + profile table + Chrome
// trace) is dumped into a tar-friendly directory
// on what the solver already decided — a ConvergenceError or
// GapUnresolvedError (DumpOnError) — and on worker panics (the batch
// recover hook), SIGQUIT/SIGUSR1 (flight_signal_unix.go) and on demand.
// The convergence ledger (internal/core/ledger.go) is the one stall and
// breakdown rule.
//
// Nothing here runs unless a flight is installed: the only always-on cost
// is one atomic pointer load at the existing hook points, the same
// nil-by-default discipline as the span hook.

// Decision is one retained decision row: a caller's (a sweep point's gear
// and start) or the flight's own (a bundle dumped or skipped).
type Decision struct {
	OffsetMS float64 `json:"offset_ms"` // since flight start
	Kind     string  `json:"kind"`      // "point", "bundle"
	Label    string  `json:"label,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Iter     int     `json:"iter,omitempty"`
}

// ring is a fixed-capacity overwrite-oldest buffer. push never allocates;
// snapshot copies out in append order.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	count int
	total int64
}

func newRing[T any](size int) *ring[T] {
	return &ring[T]{buf: make([]T, size)}
}

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		j := start + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out = append(out, r.buf[j])
	}
	return out
}

func (r *ring[T]) totals() (retained int, allTime int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count, r.total
}

// The flight recorder's constants: ring capacities, the trace ring's
// thinning, the per-run bundle cap and the span event bound of the
// profiler a flight installs.
const (
	flightSpanRing     = 4096
	flightTraceRing    = 4096
	flightDecisionRing = 1024
	flightTraceEvery   = 16
	flightMaxBundles   = 8
	flightSpanEvents   = 1 << 16
)

// FlightRecorder is one active flight recording. Create with StartFlight;
// safe for concurrent use.
type FlightRecorder struct {
	manifest *Manifest
	dir      string
	epoch    time.Time
	prof     *SpanProfiler // the profiler StartFlight installed, nil if one was recording

	spans     *ring[SpanRow]
	trace     *ring[TraceRow]
	decisions *ring[Decision]

	mu      sync.Mutex
	bundles []string

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var activeFlight atomic.Pointer[FlightRecorder]

// ActiveFlight returns the installed flight recorder, nil when no flight
// is active. The disabled cost at every tee point is this one atomic load.
func ActiveFlight() *FlightRecorder { return activeFlight.Load() }

// StartFlight installs a flight recording for the run described by m,
// dumping bundles under dir, and returns it. Only one flight is active at
// a time; starting a new one supersedes the previous. The flight owns its
// span feed: when no span profile is recording it installs a bounded one,
// which Stop removes; a profile already recording (e.g. -spans) is
// stamped with the run ID instead. The batch panic hook and the
// SIGUSR1/SIGQUIT dump handler are installed for the flight's lifetime;
// the signal watcher is the flight's only goroutine. Call Stop when the
// run ends.
func StartFlight(m *Manifest, dir string) *FlightRecorder {
	f := &FlightRecorder{
		manifest:  m,
		dir:       dir,
		epoch:     time.Now(),
		spans:     newRing[SpanRow](flightSpanRing),
		trace:     newRing[TraceRow](flightTraceRing),
		decisions: newRing[Decision](flightDecisionRing),
		stopCh:    make(chan struct{}),
	}
	activeFlight.Store(f)
	if p := InstalledProfiler(); p != nil {
		p.SetRunID(m.RunID)
	} else {
		// A modest event bound: the flight needs a span feed for its ring
		// and a profile table for bundles, not the full timeline a -spans
		// run keeps. NewSpanProfiler stamps it with the run ID.
		f.prof = StartSpanProfiler(flightSpanEvents)
	}
	batch.SetPanicHook(func(task int, recovered any, stack []byte) {
		f.dumpPanic(task, recovered, stack)
	})
	f.watchSignals()
	return f
}

// Stop ends the recording: uninstalls the flight (if it is the active
// one) and its panic hook, stops the signal goroutine, and removes the
// span profiler StartFlight installed. Safe to call more than once. The
// rings stay readable after Stop.
func (f *FlightRecorder) Stop() {
	f.stopOnce.Do(func() {
		if activeFlight.Load() == f {
			activeFlight.Store(nil)
			batch.SetPanicHook(nil)
		}
		close(f.stopCh)
		if f.prof != nil {
			f.prof.Stop()
		}
	})
	f.wg.Wait()
}

// RunID returns the run identifier of the flight's manifest.
func (f *FlightRecorder) RunID() string { return f.manifest.RunID }

// Bundles returns the directories of the bundles dumped so far.
func (f *FlightRecorder) Bundles() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.bundles))
	copy(out, f.bundles)
	return out
}

// noteSpan retains one completed span event. Called by SpanProfiler.push
// under the profiler mutex; the ring has its own lock and the ordering
// profiler → ring is acyclic.
func (f *FlightRecorder) noteSpan(r SpanRow) { f.spans.push(r) }

// NoteDecision retains one decision row (kind e.g. "point").
func (f *FlightRecorder) NoteDecision(kind, label, detail string, iter int) {
	f.decisions.push(Decision{
		OffsetMS: f.offsetMS(), Kind: kind, Label: label, Detail: detail, Iter: iter,
	})
}

func (f *FlightRecorder) offsetMS() float64 {
	return float64(time.Since(f.epoch).Nanoseconds()) / 1e6
}

// Observer returns a recorder for the labelled solve (e.g. "p=0.0312")
// that feeds the trace ring, thinned like a -trace file. Its start and
// terminal rows are never thinned and carry the solve's method and
// outcome. It tees into PowerOptions.Observer and SweepOptions.Observe
// directly.
func (f *FlightRecorder) Observer(label string) *TraceRecorder {
	return &TraceRecorder{sink: f.trace, every: flightTraceEvery, runID: f.manifest.RunID, label: label}
}

// dumpPanic is the batch-worker recover hook: it dumps a bundle carrying
// the panic value and worker stack. The worker re-panics afterwards, so
// crash semantics are unchanged.
func (f *FlightRecorder) dumpPanic(task int, recovered any, stack []byte) {
	dir, err := f.DumpBundle("panic", map[string]any{
		"task": task, "panic": fmt.Sprint(recovered),
	})
	if err != nil || dir == "" {
		return
	}
	_ = os.WriteFile(filepath.Join(dir, "panic.txt"),
		[]byte(fmt.Sprintf("task %d panicked: %v\n\n%s", task, recovered, stack)), 0o644)
}

// DumpOnError dumps a bundle when err carries a *core.ConvergenceError or
// *core.GapUnresolvedError (directly or wrapped), writing the error's
// lossless JSON form as error.json inside the bundle. Returns the bundle
// directory and true when a bundle was dumped.
func (f *FlightRecorder) DumpOnError(err error) (string, bool) {
	if err == nil {
		return "", false
	}
	var (
		reason  string
		payload any
	)
	var ce *core.ConvergenceError
	var ge *core.GapUnresolvedError
	switch {
	case errors.As(err, &ce):
		reason, payload = "convergence_error", ce
	case errors.As(err, &ge):
		reason, payload = "gap_unresolved", ge
	default:
		return "", false
	}
	dir, derr := f.DumpBundle(reason, map[string]any{"error": err.Error()})
	if derr != nil || dir == "" {
		return "", false
	}
	_ = writeJSON(filepath.Join(dir, "error.json"), payload)
	return dir, true
}

// dumpSummary is the bundle's dump.json shape.
type dumpSummary struct {
	RunID     string         `json:"run_id"`
	Reason    string         `json:"reason"`
	Time      string         `json:"time"`
	UptimeMS  float64        `json:"uptime_ms"`
	Spans     int64          `json:"spans_total"`
	TraceRows int64          `json:"trace_rows_total"`
	Decisions int64          `json:"decisions_total"`
	Extra     map[string]any `json:"extra,omitempty"`
}

// DumpBundle writes a diagnostic bundle — manifest, ring contents,
// goroutine dump, and (when a span profiler is installed) the profile
// table and Chrome trace — into a fresh directory under the flight's
// bundle dir, named "<runID>-<seq>-<reason>". It returns the directory
// path; an empty path with nil error means the per-run bundle cap was
// reached.
func (f *FlightRecorder) DumpBundle(reason string, extra map[string]any) (string, error) {
	f.mu.Lock()
	if len(f.bundles) >= flightMaxBundles {
		f.mu.Unlock()
		f.NoteDecision("bundle", "", "bundle cap reached, dump skipped: "+reason, 0)
		return "", nil
	}
	dir := filepath.Join(f.dir, fmt.Sprintf("%s-%03d-%s", f.manifest.RunID, len(f.bundles)+1, reason))
	f.bundles = append(f.bundles, dir)
	f.mu.Unlock()

	f.NoteDecision("bundle", "", reason+" → "+dir, 0)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(f.manifest.WriteFile(filepath.Join(dir, ManifestName)))
	keep(writeJSONL(filepath.Join(dir, "spans.jsonl"), f.spans.snapshot()))
	keep(writeJSONL(filepath.Join(dir, "trace.jsonl"), f.trace.snapshot()))
	keep(writeJSONL(filepath.Join(dir, "decisions.jsonl"), f.decisions.snapshot()))
	keep(os.WriteFile(filepath.Join(dir, "goroutines.txt"), allStacks(), 0o644))
	if p := InstalledProfiler(); p != nil {
		if tf, err := os.Create(filepath.Join(dir, "profile.txt")); err == nil {
			keep(p.WriteTable(tf))
			keep(tf.Close())
		} else {
			keep(err)
		}
		keep(p.WriteChromeTraceFile(filepath.Join(dir, "chrome_trace.json")))
	}
	_, spansTotal := f.spans.totals()
	_, traceTotal := f.trace.totals()
	_, decTotal := f.decisions.totals()
	sum := dumpSummary{
		RunID: f.manifest.RunID, Reason: reason,
		Time: time.Now().UTC().Format(time.RFC3339), UptimeMS: f.offsetMS(),
		Spans: spansTotal, TraceRows: traceTotal, Decisions: decTotal,
		Extra: extra,
	}
	keep(writeJSON(filepath.Join(dir, "dump.json"), sum))
	return dir, firstErr
}

// writeJSON writes v as one indented JSON document.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeJSONL writes one JSON object per element of rows.
func writeJSONL[T any](path string, rows []T) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fh)
	for i := range rows {
		if err := enc.Encode(rows[i]); err != nil {
			fh.Close()
			return err
		}
	}
	return fh.Close()
}

// allStacks captures every goroutine's stack.
func allStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// flightStatus is the /debug/flight JSON shape.
type flightStatus struct {
	Active    bool       `json:"active"`
	RunID     string     `json:"run_id,omitempty"`
	UptimeMS  float64    `json:"uptime_ms,omitempty"`
	Manifest  *Manifest  `json:"manifest,omitempty"`
	Spans     ringStatus `json:"spans"`
	TraceRows ringStatus `json:"trace_rows"`
	Decisions ringStatus `json:"decisions"`
	Recent    []Decision `json:"recent_decisions,omitempty"`
	Bundles   []string   `json:"bundles,omitempty"`
}

type ringStatus struct {
	Retained int   `json:"retained"`
	Total    int64 `json:"total"`
}

func (f *FlightRecorder) status() flightStatus {
	st := flightStatus{
		Active: true, RunID: f.manifest.RunID, UptimeMS: f.offsetMS(),
		Manifest: f.manifest, Bundles: f.Bundles(),
	}
	st.Spans.Retained, st.Spans.Total = f.spans.totals()
	st.TraceRows.Retained, st.TraceRows.Total = f.trace.totals()
	st.Decisions.Retained, st.Decisions.Total = f.decisions.totals()
	st.Recent = f.decisions.snapshot()
	if len(st.Recent) > 64 {
		st.Recent = st.Recent[len(st.Recent)-64:]
	}
	return st
}
