package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// hot paths — the most recent span events, thinned convergence-trace
// rows, method/escalation decisions, and periodic metric snapshots, and a
// numerical-health watchdog goroutine scans the live solves for
// iteration-progress stalls and NaN/Inf residuals. Escalation is a
// ladder: metrics counter → structured warning line → diagnostic bundle
// dump (manifest + ring contents + goroutine dump + profile table + Chrome
// trace) into a tar-friendly directory. Bundles are also dumped on ConvergenceError /
// GapUnresolvedError (DumpOnError), worker panics (the batch recover
// hook), SIGQUIT/SIGUSR1 (flight_signal_unix.go), and on demand.
//
// Nothing here runs unless a flight is installed: the only always-on cost
// is one atomic pointer load at the existing hook points, the same
// nil-by-default discipline as wire.go.

// FlightSpan is one retained span event, a compact copy of SpanRow with
// JSON tags for bundle export. Times are relative to the span profiler's
// epoch, like SpanRow.
type FlightSpan struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	TID     int64  `json:"tid"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	A1      int64  `json:"a1,omitempty"`
	A2      int64  `json:"a2,omitempty"`
}

// Decision is one retained method/escalation decision: which gear a solve
// chose, how it terminated, what the watchdog observed.
type Decision struct {
	OffsetMS float64 `json:"offset_ms"` // since flight start
	Kind     string  `json:"kind"`      // "method", "outcome", "watchdog", "bundle"
	Label    string  `json:"label,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Iter     int     `json:"iter,omitempty"`
}

// MetricSnapshot is one periodic capture of the default registry.
type MetricSnapshot struct {
	OffsetMS float64        `json:"offset_ms"`
	Values   map[string]any `json:"values"`
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
// thinning, the metric-snapshot cadence, the per-run bundle cap, the span
// event bound of the profiler a flight installs, and the watchdog ladder —
// scan interval, stall bounds (wall time since the last relative residual
// improvement ≥ 1e-6, or residual checks since it) and the escalation
// rungs in consecutive stalled scans.
const (
	flightSpanRing      = 4096
	flightTraceRing     = 4096
	flightDecisionRing  = 1024
	flightMetricRing    = 256
	flightTraceEvery    = 16
	flightMetricPeriod  = 2 * time.Second
	flightMaxBundles    = 8
	flightSpanEvents    = 1 << 16
	watchdogInterval    = 500 * time.Millisecond
	watchdogStallWall   = 30 * time.Second
	watchdogStallChecks = 5000
	watchdogWarnAfter   = 2
	watchdogDumpAfter   = 4
)

// flightConfig is what a flight runs with: the constants above, except
// where the in-package tests shrink cadences and bounds. A zero interval,
// metric period, stall wall or stall-check bound turns that part off.
type flightConfig struct {
	traceEvery           int
	metricPeriod         time.Duration
	maxBundles           int
	interval             time.Duration
	stallWall            time.Duration
	stallChecks          int
	warnAfter, dumpAfter int
	log                  func(line string) // warning sink; nil writes to stderr
}

// bundleReasons is the fixed label set of qs_flight_bundles_total.
var bundleReasons = []string{
	"stall", "nan", "convergence_error", "gap_unresolved",
	"panic", "signal", "manual", "other",
}

// FlightRecorder is one active flight recording. Create with StartFlight;
// safe for concurrent use.
type FlightRecorder struct {
	manifest *Manifest
	dir      string
	cfg      flightConfig
	epoch    time.Time
	prof     *SpanProfiler // the profiler StartFlight installed, nil if one was recording

	spans     *ring[FlightSpan]
	trace     *ring[TraceRow]
	decisions *ring[Decision]
	metrics   *ring[MetricSnapshot]

	mu       sync.Mutex
	solves   map[*FlightSolveRecorder]struct{}
	bundles  []string
	seq      int
	onceDump map[string]bool // reason → dumped (ladder reasons dump once per run)

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mStalls, mNaNs *Counter
	mBundles       map[string]*Counter
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
// SIGUSR1/SIGQUIT dump handler are installed for the flight's lifetime.
// Call Stop when the run ends.
func StartFlight(m *Manifest, dir string) *FlightRecorder {
	return startFlight(m, dir, flightConfig{
		traceEvery:   flightTraceEvery,
		metricPeriod: flightMetricPeriod,
		maxBundles:   flightMaxBundles,
		interval:     watchdogInterval,
		stallWall:    watchdogStallWall,
		stallChecks:  watchdogStallChecks,
		warnAfter:    watchdogWarnAfter,
		dumpAfter:    watchdogDumpAfter,
	})
}

func startFlight(m *Manifest, dir string, cfg flightConfig) *FlightRecorder {
	r := Default()
	f := &FlightRecorder{
		manifest:  m,
		dir:       dir,
		cfg:       cfg,
		epoch:     time.Now(),
		spans:     newRing[FlightSpan](flightSpanRing),
		trace:     newRing[TraceRow](flightTraceRing),
		decisions: newRing[Decision](flightDecisionRing),
		metrics:   newRing[MetricSnapshot](flightMetricRing),
		solves:    make(map[*FlightSolveRecorder]struct{}),
		onceDump:  make(map[string]bool),
		stopCh:    make(chan struct{}),
		mStalls:   r.Counter("qs_flight_watchdog_stalls_total", "Watchdog stall detections (one per scan of a stalled solve)."),
		mNaNs:     r.Counter("qs_flight_watchdog_nan_total", "Watchdog NaN/Inf residual detections."),
		mBundles:  make(map[string]*Counter, len(bundleReasons)),
	}
	for _, reason := range bundleReasons {
		f.mBundles[reason] = r.Counter(
			`qs_flight_bundles_total{reason="`+reason+`"}`,
			"Diagnostic bundles dumped by trigger reason.")
	}
	r.Gauge(`qs_flight_run_info{run_id="`+EscapeLabel(m.RunID)+`"}`,
		"Identity of the flight-recorded run (1 while its process runs).").Set(1)
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
	if cfg.interval > 0 {
		f.wg.Add(1)
		go f.watchdogLoop()
	}
	if cfg.metricPeriod > 0 {
		f.wg.Add(1)
		go f.metricLoop()
	}
	return f
}

// Stop ends the recording: uninstalls the flight (if it is the active
// one) and its panic hook, stops the watchdog, snapshot and signal
// goroutines, and removes the span profiler StartFlight installed. Safe to
// call more than once. The rings stay readable after Stop.
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
func (f *FlightRecorder) noteSpan(r SpanRow) {
	f.spans.push(FlightSpan{
		Layer: r.Layer, Name: r.Name, TID: r.TID,
		StartNS: int64(r.Start), DurNS: int64(r.Dur), A1: r.A1, A2: r.A2,
	})
}

// NoteDecision retains one method/escalation decision row.
func (f *FlightRecorder) NoteDecision(kind, label, detail string, iter int) {
	f.decisions.push(Decision{
		OffsetMS: f.offsetMS(), Kind: kind, Label: label, Detail: detail, Iter: iter,
	})
}

func (f *FlightRecorder) offsetMS() float64 {
	return float64(time.Since(f.epoch).Nanoseconds()) / 1e6
}

// Observer returns a per-solve recorder for the labelled solve (e.g.
// "p=0.0312"): it feeds the trace ring through a TraceRecorder, thinned
// like a -trace file, and registers the solve with the watchdog until a
// terminal event arrives. The recorder's method set matches core.Observer
// plus the optional Method extension, so it tees into
// PowerOptions.Observer and SweepOptions.Observe directly.
func (f *FlightRecorder) Observer(label string) *FlightSolveRecorder {
	r := &FlightSolveRecorder{
		f: f, label: label,
		rows: &TraceRecorder{sink: f.trace, every: f.cfg.traceEvery, runID: f.manifest.RunID, label: label},
		best: math.Inf(1), lastImprove: time.Now(),
	}
	f.register(r)
	return r
}

// register adds r to the watchdog's watch set (idempotent).
func (f *FlightRecorder) register(r *FlightSolveRecorder) {
	f.mu.Lock()
	f.solves[r] = struct{}{}
	f.mu.Unlock()
}

func (f *FlightRecorder) unregister(r *FlightSolveRecorder) {
	f.mu.Lock()
	delete(f.solves, r)
	f.mu.Unlock()
}

// FlightSolveRecorder records one solve's convergence stream into the
// flight's trace ring and exposes its progress to the watchdog. Step/Event
// match core.Observer; Method matches the optional methodReporter
// extension.
type FlightSolveRecorder struct {
	f     *FlightRecorder
	label string
	rows  *TraceRecorder // the solve goroutine's alone

	// Watchdog state, read by the scan goroutine under mu.
	mu           sync.Mutex
	method       string
	steps        int
	iter         int
	residual     float64
	best         float64
	sinceImprove int
	lastImprove  time.Time
	done         bool
	nanSeen      bool
	stallTicks   int
	stallWarned  bool
}

// Method labels subsequent rows with the solve gear and retains the
// method decision.
func (r *FlightSolveRecorder) Method(kind string) {
	r.rows.Method(kind)
	r.mu.Lock()
	r.method = kind
	iter := r.iter
	r.mu.Unlock()
	r.f.NoteDecision("method", r.label, kind, iter)
}

// Step records a residual check: a thinned trace-ring row plus watchdog
// progress bookkeeping. NaN/Inf residuals escalate immediately.
func (r *FlightSolveRecorder) Step(iter int, lambda, residual float64) {
	r.rows.Step(iter, lambda, residual)
	bad := math.IsNaN(residual) || math.IsInf(residual, 0) ||
		math.IsNaN(lambda) || math.IsInf(lambda, 0)
	r.mu.Lock()
	r.steps++
	r.iter = iter
	r.residual = residual
	if residual < r.best*(1-1e-6) {
		r.best = residual
		r.sinceImprove = 0
		r.lastImprove = time.Now()
	} else {
		r.sinceImprove++
	}
	escalate := bad && !r.nanSeen
	if bad {
		r.nanSeen = true
	}
	r.mu.Unlock()
	if escalate {
		r.f.escalateNaN(r.label, iter, residual)
	}
}

// Event records a lifecycle event and unregisters the solve from the
// watchdog when the event terminates it. A start after a terminal event
// re-arms the watchdog state for the next solve on the same observer.
func (r *FlightSolveRecorder) Event(event string, iter int, lambda, residual float64) {
	terminal := event != core.EventStart
	r.mu.Lock()
	if terminal {
		r.done = true
	} else if r.done {
		// The observer is being reused for a fresh solve (the next gear
		// of a sweep point, repeated benchmark reps on one model).
		r.done, r.nanSeen = false, false
		r.steps, r.sinceImprove, r.stallTicks = 0, 0, 0
		r.stallWarned = false
		r.best = math.Inf(1)
		r.lastImprove = time.Now()
	}
	r.mu.Unlock()
	if !terminal {
		// Idempotent for the first start; re-registers a reused observer
		// that a previous solve's terminal event unregistered.
		r.f.register(r)
	}
	r.rows.Event(event, iter, lambda, residual)
	if terminal {
		r.f.NoteDecision("outcome", r.label, event, iter)
		r.f.unregister(r)
	}
}

// escalateNaN is the immediate full escalation for a NaN/Inf residual:
// counter, structured warning, bundle (once per run).
func (f *FlightRecorder) escalateNaN(label string, iter int, residual float64) {
	f.mNaNs.Inc()
	f.warn(map[string]any{
		"kind": "nan", "label": label, "iter": iter, "residual": fmt.Sprint(residual),
	})
	f.dumpOnce("nan", map[string]any{"label": label, "iter": iter})
}

// warn emits one structured (JSON-object) warning line and retains it as
// a watchdog decision.
func (f *FlightRecorder) warn(fields map[string]any) {
	fields["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	fields["run_id"] = f.manifest.RunID
	line, err := json.Marshal(fields)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"run_id":%q,"kind":"warn_marshal_failed"}`, f.manifest.RunID))
	}
	if f.cfg.log != nil {
		f.cfg.log(string(line))
	} else {
		fmt.Fprintf(os.Stderr, "qs-flight: %s\n", line)
	}
	detail, _ := fields["kind"].(string)
	label, _ := fields["label"].(string)
	f.NoteDecision("watchdog", label, detail, 0)
}

// dumpOnce dumps a bundle for a ladder reason at most once per run.
func (f *FlightRecorder) dumpOnce(reason string, extra map[string]any) {
	f.mu.Lock()
	if f.onceDump[reason] {
		f.mu.Unlock()
		return
	}
	f.onceDump[reason] = true
	f.mu.Unlock()
	_, _ = f.DumpBundle(reason, extra)
}

// watchdogLoop is the health scan: every interval it checks live solves
// for stalls, climbing the escalation ladder per solve.
func (f *FlightRecorder) watchdogLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.interval)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			f.scanSolves()
		}
	}
}

func (f *FlightRecorder) scanSolves() {
	c := f.cfg
	f.mu.Lock()
	live := make([]*FlightSolveRecorder, 0, len(f.solves))
	for r := range f.solves {
		live = append(live, r)
	}
	f.mu.Unlock()
	for _, r := range live {
		r.mu.Lock()
		stalled := false
		if !r.done && r.steps > 0 {
			stalled = c.stallChecks > 0 && r.sinceImprove >= c.stallChecks ||
				c.stallWall > 0 && time.Since(r.lastImprove) >= c.stallWall
		}
		var warnFields map[string]any
		dump := false
		if stalled {
			r.stallTicks++
			if r.stallTicks == c.warnAfter || (r.stallTicks >= c.warnAfter && !r.stallWarned) {
				r.stallWarned = true
				warnFields = map[string]any{
					"kind": "stall", "label": r.label, "iter": r.iter,
					"residual": fmt.Sprint(r.residual), "best": fmt.Sprint(r.best),
					"since_improvement":    r.sinceImprove,
					"since_improvement_ms": time.Since(r.lastImprove).Milliseconds(),
					"method":               r.method,
				}
			}
			dump = r.stallTicks >= c.dumpAfter
		} else {
			r.stallTicks = 0
		}
		label, iter := r.label, r.iter
		r.mu.Unlock()
		if stalled {
			f.mStalls.Inc()
		}
		if warnFields != nil {
			f.warn(warnFields)
		}
		if dump {
			f.dumpOnce("stall", map[string]any{"label": label, "iter": iter})
		}
	}
}

// metricLoop captures periodic registry snapshots into the metric ring.
func (f *FlightRecorder) metricLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.metricPeriod)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			f.metrics.push(MetricSnapshot{
				OffsetMS: f.offsetMS(), Values: Default().Snapshot(),
			})
		}
	}
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
	if data, jerr := json.MarshalIndent(payload, "", "  "); jerr == nil {
		_ = os.WriteFile(filepath.Join(dir, "error.json"), append(data, '\n'), 0o644)
	}
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
	if len(f.bundles) >= f.cfg.maxBundles {
		f.mu.Unlock()
		f.NoteDecision("bundle", "", "bundle cap reached, dump skipped: "+reason, 0)
		return "", nil
	}
	f.seq++
	seq := f.seq
	dir := filepath.Join(f.dir, fmt.Sprintf("%s-%03d-%s", f.manifest.RunID, seq, reason))
	f.bundles = append(f.bundles, dir)
	f.mu.Unlock()

	if c := f.mBundles[reason]; c != nil {
		c.Inc()
	} else {
		f.mBundles["other"].Inc()
	}
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
	keep(writeJSONL(filepath.Join(dir, "metrics.jsonl"), f.metrics.snapshot()))
	keep(os.WriteFile(filepath.Join(dir, "goroutines.txt"), allStacks(), 0o644))
	if s := ActiveSampler(); s != nil {
		if tf, err := os.Create(filepath.Join(dir, "telemetry.jsonl")); err == nil {
			keep(s.WriteJSONL(tf))
			keep(tf.Close())
		} else {
			keep(err)
		}
	}
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
	if data, err := json.MarshalIndent(sum, "", "  "); err == nil {
		keep(os.WriteFile(filepath.Join(dir, "dump.json"), append(data, '\n'), 0o644))
	} else {
		keep(err)
	}
	return dir, firstErr
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
	Metrics   ringStatus `json:"metric_snapshots"`
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
	st.Metrics.Retained, st.Metrics.Total = f.metrics.totals()
	st.Recent = f.decisions.snapshot()
	if len(st.Recent) > 64 {
		st.Recent = st.Recent[len(st.Recent)-64:]
	}
	return st
}
