package obs

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	rttrace "runtime/trace"

	"repro/internal/span"
)

// Hierarchical span profiler: answers "where does the time go inside one
// solve?" by recording the nested span stream the solver layers emit
// through internal/span — batch task → eigensolve → iteration phase
// (matvec, shift, rayleigh, residual, normalize) → kernel pass → stage
// group → device launch / queue wait.
//
// Two products come out of one recording:
//
//   - an exact per-site aggregate (count, total time, self time = total
//     minus time attributed to nested child spans), maintained online so
//     it stays correct even when the event buffer fills, and
//   - a bounded buffer of individual span events exportable as Chrome
//     trace-event JSON (load the file in chrome://tracing or Perfetto).
//
// Self time is computed without post-processing: each goroutine's
// innermost open span is tracked, a closing span adds its duration to its
// parent's child-time accumulator, and the parent's self time is its
// duration minus that accumulator. Spans reported post hoc
// (Recorder.Record, e.g. the device queue-wait tail) are treated as leaf
// children of the goroutine's currently open span.
//
// When a Go execution trace is active (go test -trace, the /debug/pprof/
// trace endpoint, rttrace.Start), Begin additionally opens a
// runtime/trace region named "layer:name" under one profiler-wide task,
// so spans land in the execution-trace timeline next to the scheduler's
// own events; post-hoc spans become trace log messages.

// SpanRow is one recorded span event. Start is relative to the profiler's
// epoch; TID is the recording goroutine's id, the Chrome trace track. The
// JSON form is a flight bundle's spans.jsonl row (durations in ns).
type SpanRow struct {
	Layer string        `json:"layer"`
	Name  string        `json:"name"`
	TID   int64         `json:"tid"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	A1    int64         `json:"a1,omitempty"`
	A2    int64         `json:"a2,omitempty"`
}

// SpanStat is the aggregate of one span site (layer, name).
type SpanStat struct {
	Layer string
	Name  string
	Count int64
	// Total is the summed wall time of all spans of the site.
	Total time.Duration
	// Self is Total minus the time spent in nested child spans — the
	// site's own share, the column that sums to wall time across sites.
	Self time.Duration
}

type spanKey struct{ layer, name string }

type spanAgg struct {
	count int64
	total time.Duration
	self  time.Duration
}

// DefaultMaxSpanEvents bounds the event buffer of a SpanProfiler:
// per-iteration phase spans of a long solve near the error threshold can
// run to millions, and the aggregate stays exact regardless, so the
// buffer trades completeness of the exported timeline for bounded memory.
const DefaultMaxSpanEvents = 1 << 20

// SpanProfiler records the solver's span stream; it is the span.Recorder
// StartSpanProfiler installs on the hook. NewSpanProfiler alone gives an
// uninstalled profiler to feed with Begin and Record. Safe for concurrent
// use.
type SpanProfiler struct {
	epoch time.Time

	mu      sync.Mutex
	runID   string
	rows    []SpanRow
	maxRows int
	dropped int64
	cur     map[int64]*activeSpan // per-goroutine innermost open span
	stats   map[spanKey]*spanAgg
	stopped time.Duration // wall time frozen by Stop (0 while running)

	ctx  context.Context // runtime/trace task context (nil without a trace)
	task *rttrace.Task
}

// NewSpanProfiler returns an idle profiler. maxEvents bounds the event
// buffer (≤ 0 selects DefaultMaxSpanEvents); the aggregate table is exact
// regardless of the bound.
func NewSpanProfiler(maxEvents int) *SpanProfiler {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxSpanEvents
	}
	p := &SpanProfiler{
		epoch:   time.Now(),
		maxRows: maxEvents,
		cur:     make(map[int64]*activeSpan),
		stats:   make(map[spanKey]*spanAgg),
	}
	// A profiler born during a flight belongs to that run: stamp the run ID
	// so later-installed profiles (e.g. per-rep -spans) still name their
	// manifest.
	if fl := ActiveFlight(); fl != nil {
		p.runID = fl.RunID()
	}
	if rttrace.IsEnabled() {
		p.ctx, p.task = rttrace.NewTask(context.Background(), "qs-spans")
	}
	return p
}

// installMu orders the installs and uninstalls of profilers on the span
// hook, so that Stop never uninstalls a newer profile.
var installMu sync.Mutex

// StartSpanProfiler creates a profiler and installs it as the span
// recorder, superseding any profile recording before. Call Stop to
// uninstall and freeze it.
func StartSpanProfiler(maxEvents int) *SpanProfiler {
	p := NewSpanProfiler(maxEvents)
	installMu.Lock()
	span.SetRecorder(p)
	installMu.Unlock()
	return p
}

// InstalledProfiler returns the span profiler installed on the hook (the
// live profile the debug endpoints serve), nil otherwise.
func InstalledProfiler() *SpanProfiler {
	p, _ := span.Installed().(*SpanProfiler)
	return p
}

// Stop uninstalls the profiler (if it is the installed one), ends its
// runtime/trace task and freezes the recording's wall time. Safe to call
// more than once; already-open spans may still End into the profiler
// afterwards and are accounted normally.
func (p *SpanProfiler) Stop() {
	installMu.Lock()
	if InstalledProfiler() == p {
		span.SetRecorder(nil)
	}
	installMu.Unlock()
	p.mu.Lock()
	if p.stopped == 0 {
		p.stopped = time.Since(p.epoch)
	}
	p.mu.Unlock()
	if p.task != nil {
		p.task.End()
		p.task = nil
	}
}

// Wall returns the recording's wall time: epoch to Stop, or to now while
// still running.
func (p *SpanProfiler) Wall() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped != 0 {
		return p.stopped
	}
	return time.Since(p.epoch)
}

// SetRunID stamps the profile with the run identity of its flight: the
// run ID appears in the Chrome trace's otherData, the text table footer,
// and the /debug/spans payload, so a profile artifact names the manifest
// it belongs to.
func (p *SpanProfiler) SetRunID(id string) {
	p.mu.Lock()
	p.runID = id
	p.mu.Unlock()
}

// RunID returns the stamped run identity ("" when none).
func (p *SpanProfiler) RunID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runID
}

// Dropped returns how many span events exceeded the buffer bound (their
// aggregate contribution is still exact).
func (p *SpanProfiler) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

type activeSpan struct {
	p           *SpanProfiler
	layer, name string
	gid         int64
	start       time.Time
	parent      *activeSpan
	child       time.Duration // time attributed to nested children
	region      *rttrace.Region
}

// Begin implements span.Recorder: it opens a span on the calling
// goroutine.
func (p *SpanProfiler) Begin(layer, name string) span.Handle {
	a := &activeSpan{p: p, layer: layer, name: name, gid: goid(), start: time.Now()}
	if p.ctx != nil && rttrace.IsEnabled() {
		a.region = rttrace.StartRegion(p.ctx, layer+":"+name)
	}
	p.mu.Lock()
	a.parent = p.cur[a.gid]
	p.cur[a.gid] = a
	p.mu.Unlock()
	return a
}

// End implements span.Handle.
func (a *activeSpan) End(a1, a2 int64) {
	if a.region != nil {
		a.region.End()
	}
	p := a.p
	d := time.Since(a.start)
	p.mu.Lock()
	if p.cur[a.gid] == a {
		if a.parent != nil {
			p.cur[a.gid] = a.parent
		} else {
			delete(p.cur, a.gid)
		}
	}
	if a.parent != nil {
		a.parent.child += d
	}
	p.account(a.layer, a.name, d, d-a.child)
	p.push(SpanRow{
		Layer: a.layer, Name: a.name, TID: a.gid,
		Start: a.start.Sub(p.epoch), Dur: d, A1: a1, A2: a2,
	})
	p.mu.Unlock()
}

// Record implements span.Recorder: it reports a completed leaf span of
// duration d ending now, charged as a child of the calling goroutine's
// open span.
func (p *SpanProfiler) Record(layer, name string, d time.Duration, a1, a2 int64) {
	if d < 0 {
		d = 0
	}
	end := time.Now()
	gid := goid()
	if p.ctx != nil && rttrace.IsEnabled() {
		rttrace.Log(p.ctx, layer, name)
	}
	p.mu.Lock()
	if open := p.cur[gid]; open != nil {
		open.child += d
	}
	p.account(layer, name, d, d)
	p.push(SpanRow{
		Layer: layer, Name: name, TID: gid,
		Start: end.Add(-d).Sub(p.epoch), Dur: d, A1: a1, A2: a2,
	})
	p.mu.Unlock()
}

// account and push run under p.mu.
func (p *SpanProfiler) account(layer, name string, total, self time.Duration) {
	k := spanKey{layer, name}
	agg := p.stats[k]
	if agg == nil {
		agg = &spanAgg{}
		p.stats[k] = agg
	}
	agg.count++
	agg.total += total
	agg.self += self
}

func (p *SpanProfiler) push(r SpanRow) {
	// Tee into the flight recorder's span ring before the buffer-bound
	// check: the ring overwrites its oldest entries, so it keeps the most
	// recent spans even after the profiler buffer filled. The disabled
	// cost is the one atomic load of ActiveFlight.
	if fl := ActiveFlight(); fl != nil {
		fl.noteSpan(r)
	}
	if len(p.rows) >= p.maxRows {
		p.dropped++
		return
	}
	p.rows = append(p.rows, r)
}

// Rows returns a copy of the buffered span events in completion order.
func (p *SpanProfiler) Rows() []SpanRow {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SpanRow, len(p.rows))
	copy(out, p.rows)
	return out
}

// Stats returns the exact per-site aggregates, sorted by total time
// descending (ties by layer, name).
func (p *SpanProfiler) Stats() []SpanStat {
	p.mu.Lock()
	out := make([]SpanStat, 0, len(p.stats))
	for k, a := range p.stats {
		out = append(out, SpanStat{
			Layer: k.layer, Name: k.name,
			Count: a.count, Total: a.total, Self: a.self,
		})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// goid returns the current goroutine's id by parsing the first line of its
// stack ("goroutine 123 [running]:"). Only called while spans are enabled;
// the disabled path never reaches it.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine ".
	var id int64
	for i := len("goroutine "); i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
