package obs

import (
	"sync"
	"time"

	"repro/internal/span"
)

// hook.go owns the one recorder obs installs on the solver's span hook
// (internal/span). The recorder fans every span event out to two
// subscribers: the running SpanProfiler (StartSpanProfiler … Stop) and the
// qs_* metric families (EnableSolverMetrics). Either may be absent; with
// neither no recorder is installed, and the solver pays one atomic load
// per instrumented site.

// fanout is the installed recorder. It is immutable — changing a
// subscriber installs a fresh copy — so its hot path reads plain fields.
type fanout struct {
	prof *SpanProfiler  // nil when no profile is recording
	met  *solverMetrics // nil until EnableSolverMetrics
}

// subscribers is the subscriber set the installed recorder copies.
var subscribers struct {
	sync.Mutex
	fanout
}

// subscribe applies change to the subscriber set and installs a recorder
// for the result, or none when both subscribers are absent.
func subscribe(change func(f *fanout)) {
	subscribers.Lock()
	defer subscribers.Unlock()
	change(&subscribers.fanout)
	if subscribers.prof == nil && subscribers.met == nil {
		span.SetRecorder(nil)
		return
	}
	f := subscribers.fanout
	span.SetRecorder(&f)
}

// InstalledProfiler returns the span profiler the installed recorder feeds
// (the live profile the debug endpoints serve), nil otherwise.
func InstalledProfiler() *SpanProfiler {
	if f, ok := span.Installed().(*fanout); ok {
		return f.prof
	}
	return nil
}

// Begin implements span.Recorder. Without a profile, sites no metric
// family reads at End get a nil handle, so enabling metrics adds no
// per-phase timing.
func (f *fanout) Begin(layer, name string) span.Handle {
	var site *metricSite
	if f.met != nil {
		if site = f.met.sites[spanKey{layer, name}]; site != nil {
			site.begin()
		}
	}
	if f.prof != nil {
		return f.prof.begin(layer, name, site)
	}
	if site == nil || !site.timed() {
		return nil
	}
	ms := metricSpans.Get().(*metricSpan)
	ms.site, ms.start = site, time.Now()
	return ms
}

// Record implements span.Recorder. A zero-length record is an event, not
// time — a launch without a barrier wait, a failed task — so it feeds the
// metrics only and stays out of the profile.
func (f *fanout) Record(layer, name string, d time.Duration, a1, a2 int64) {
	if f.met != nil {
		if site := f.met.sites[spanKey{layer, name}]; site != nil {
			site.end(d, a1, a2)
		}
	}
	if f.prof != nil && d > 0 {
		f.prof.Record(layer, name, d, a1, a2)
	}
}

// Check implements span.Recorder; only the metrics read residual checks.
func (f *fanout) Check(iters int64, residual float64, outcome string) {
	if f.met != nil {
		f.met.check(iters, residual, outcome)
	}
}

// metricSpan is an open span of a metric-fed site while no profile
// records: the site and its start time, pooled so that enabling metrics
// allocates nothing per span.
type metricSpan struct {
	site  *metricSite
	start time.Time
}

var metricSpans = sync.Pool{New: func() any { return new(metricSpan) }}

// End implements span.Handle.
func (ms *metricSpan) End(a1, a2 int64) {
	ms.site.end(time.Since(ms.start), a1, a2)
	ms.site = nil
	metricSpans.Put(ms)
}
