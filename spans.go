package quasispecies

import (
	"io"
	"time"

	"repro/internal/obs"
)

// Span profiling: a hierarchical wall-time profile of the solver's own
// structure. While a profile is running, every layer of the solver emits
// nested spans — facade solve → eigensolve → iteration phase (matvec,
// shift, rayleigh, residual, normalize) → kernel pass → stage group →
// device launch / queue wait — and the profile aggregates them into a
// per-phase time table and an exportable execution timeline.
//
// The hooks are nil by default: with no profile running the solver pays one
// atomic pointer load per instrumented scope, performs no timing calls,
// allocates nothing, and produces bit-identical numerics (enforced by the
// alloc/bit-identity tests in internal/core and internal/mutation).
//
// Usage:
//
//	prof := quasispecies.StartSpanProfile(0)
//	sol, err := model.Solve()
//	prof.Stop()
//	prof.WriteTable(os.Stderr)                  // per-phase self/total table
//	prof.WriteChromeTraceFile("spans.json")     // load in Perfetto
//
// When a Go execution trace is active (go test -trace, runtime/trace.Start),
// the same spans additionally appear as runtime/trace regions in the
// execution-trace timeline.

// PhaseTime is the aggregate of one span site: how often it ran, its summed
// wall time, and its self time (total minus time in nested child spans —
// the column that partitions wall time across the layers).
type PhaseTime struct {
	// Layer is the solver layer that emitted the span ("facade", "batch",
	// "core", "mutation", "device").
	Layer string
	// Name is the span site within the layer (e.g. "matvec", "stage_group").
	Name  string
	Count int64
	Total time.Duration
	Self  time.Duration
}

// SpanProfile is a running or stopped span recording. Create with
// StartSpanProfile; safe for concurrent use (batched sweeps record from all
// workers into one profile).
type SpanProfile struct {
	p *obs.SpanProfiler
}

// StartSpanProfile installs the process-wide span recorder and starts
// recording. maxEvents bounds the buffered timeline events (≤ 0 selects the
// default of ~1M); the aggregate table stays exact past the bound. Only one
// profile records at a time — starting a new one supersedes the previous.
func StartSpanProfile(maxEvents int) *SpanProfile {
	return &SpanProfile{p: obs.StartSpanProfiler(maxEvents)}
}

// Stop detaches the profile from the span hook and freezes its wall
// clock. Safe to call more than once.
func (sp *SpanProfile) Stop() { sp.p.Stop() }

// Wall returns the profiled wall time (start to Stop, or to now while
// running).
func (sp *SpanProfile) Wall() time.Duration { return sp.p.Wall() }

// Dropped returns how many timeline events exceeded the buffer bound.
func (sp *SpanProfile) Dropped() int64 { return sp.p.Dropped() }

// Phases returns the per-site aggregates sorted by total time descending.
func (sp *SpanProfile) Phases() []PhaseTime {
	stats := sp.p.Stats()
	out := make([]PhaseTime, len(stats))
	for i, s := range stats {
		out[i] = PhaseTime{
			Layer: s.Layer, Name: s.Name, Count: s.Count, Total: s.Total, Self: s.Self,
		}
	}
	return out
}

// WriteTable writes the per-phase time table (count, total, self, avg per
// span site, wall-time footer) to w.
func (sp *SpanProfile) WriteTable(w io.Writer) error { return sp.p.WriteTable(w) }

// WriteChromeTrace writes the recorded timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
func (sp *SpanProfile) WriteChromeTrace(w io.Writer) error { return sp.p.WriteChromeTrace(w) }

// WriteChromeTraceFile writes the Chrome trace-event JSON to path.
func (sp *SpanProfile) WriteChromeTraceFile(path string) error {
	return sp.p.WriteChromeTraceFile(path)
}
