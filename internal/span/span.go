// Package span is the one instrumentation hook of the solver packages.
// Spans cross package boundaries — a batch task contains a solve, which
// contains kernel passes, which contain device launches — so nesting
// requires ONE process-wide recorder that every instrumented layer reports
// into: internal/obs installs its span profiler there. How a solve
// converged is not a span event; it goes to the solve's own Observer
// (internal/core). This package holds that single nil-by-default
// atomic.Pointer hook and nothing else; it depends only on the standard
// library, so every solver package (and internal/obs, which implements
// Recorder) can import it without cycles.
//
// Zero-overhead contract (enforced by the alloc tests in internal/core and
// internal/mutation): with no recorder installed, Begin is one atomic
// pointer load returning a nil Handle — no timing calls, no allocations,
// bit-identical numerics. Hot loops hoist the load with Installed() and
// pay only a nil check per span site.
package span

import (
	"sync/atomic"
	"time"
)

// Layer names of the instrumented solver packages, used as the span
// category (the Chrome trace "cat" field and the first aggregation key).
const (
	LayerFacade   = "facade"
	LayerBatch    = "batch"
	LayerCore     = "core"
	LayerMutation = "mutation"
	LayerDevice   = "device"
)

// Handle is one open span. End closes it with two optional integer
// arguments whose meaning depends on the span site (butterfly stage count,
// grid size, slot index, …); pass zeros when there is nothing to report.
// End must be called on the goroutine that opened the span.
type Handle interface {
	End(a1, a2 int64)
}

// Recorder receives spans. Begin opens a nested span on the calling
// goroutine and may return nil for a site it does not time; Record reports
// a span post hoc — one that already finished, with the given duration,
// ending at the time of the call (the device queue-wait tail is measured
// this way). Implementations must be safe for concurrent use: spans
// arrive from pool workers and batch slots.
type Recorder interface {
	Begin(layer, name string) Handle
	Record(layer, name string, d time.Duration, a1, a2 int64)
}

type hook struct{ r Recorder }

var rec atomic.Pointer[hook]

// SetRecorder installs r as the process-wide span recorder (nil
// uninstalls). It is not meant to be toggled concurrently with running
// solves: install at startup or between runs.
func SetRecorder(r Recorder) {
	if r == nil {
		rec.Store(nil)
		return
	}
	rec.Store(&hook{r: r})
}

// Installed returns the current recorder, nil when disabled — one atomic
// load. Hot loops call it once and keep the result, paying a plain nil
// check per span site instead of an atomic load.
func Installed() Recorder {
	h := rec.Load()
	if h == nil {
		return nil
	}
	return h.r
}

// Enabled reports whether a recorder is installed.
func Enabled() bool { return rec.Load() != nil }

// Begin opens a span on the installed recorder and returns its handle,
// nil when no recorder is installed.
func Begin(layer, name string) Handle {
	h := rec.Load()
	if h == nil {
		return nil
	}
	return h.r.Begin(layer, name)
}

// End closes h if it is a live span handle; a nil h (spans disabled at
// Begin time) is a no-op. Keeps call sites branch-free.
func End(h Handle, a1, a2 int64) {
	if h != nil {
		h.End(a1, a2)
	}
}
