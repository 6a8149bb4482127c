package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/span"
)

// Chrome trace-event export of a span recording: one complete ("X") event
// per buffered span, timestamps/durations in microseconds relative to the
// profiler epoch, the recording goroutine as the track (tid). The output
// loads directly in chrome://tracing and in Perfetto (ui.perfetto.dev →
// "Open trace file"); nesting is reconstructed from the containment of
// the events on each track, which holds by construction because nested
// spans open and close on one goroutine.

// chromeEvent is one trace event in the Trace Event Format (the JSON
// object format with a traceEvents array).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// spanArgNames maps a span site to the meaning of its two End arguments,
// so exported traces carry named args instead of a1/a2.
func spanArgNames(layer, name string) (string, string) {
	switch layer {
	case span.LayerFacade:
		return "dim", ""
	case span.LayerMutation:
		return "stages", ""
	case span.LayerDevice:
		if name == "queue_wait" {
			return "chunks", ""
		}
		return "grid", "chunks"
	case span.LayerBatch:
		if name == "run" {
			return "tasks", "workers"
		}
		return "slot", "task"
	case span.LayerCore:
		switch name {
		case core.SolveKindPower, core.SolveKindShiftInvert, core.SolveKindChebyshev, core.SolveKindArnoldi:
			return "dim", "matvecs"
		case core.PhaseGapProbe:
			return "dim", "steps"
		}
		return "iter", ""
	}
	return "a1", "a2"
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace renders the buffered span events as Chrome trace-event
// JSON. Events dropped past the buffer bound are noted in otherData
// (the aggregate Stats stay exact regardless).
func (p *SpanProfiler) WriteChromeTrace(w io.Writer) error {
	p.mu.Lock()
	rows := make([]SpanRow, len(p.rows))
	copy(rows, p.rows)
	p.mu.Unlock()
	events := make([]chromeEvent, 0, len(rows))
	for _, r := range rows {
		ev := chromeEvent{
			Name: r.Name, Cat: r.Layer, Ph: "X",
			TS: usec(r.Start), Dur: usec(r.Dur),
			PID: 1, TID: r.TID,
		}
		if r.A1 != 0 || r.A2 != 0 {
			n1, n2 := spanArgNames(r.Layer, r.Name)
			ev.Args = map[string]any{}
			if n1 != "" {
				ev.Args[n1] = r.A1
			}
			if n2 != "" && r.A2 != 0 {
				ev.Args[n2] = r.A2
			}
		}
		events = append(events, ev)
	}
	tr := chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"wall_us": usec(p.Wall()),
		},
	}
	if id := p.RunID(); id != "" {
		tr.OtherData["run_id"] = id
	}
	if d := p.Dropped(); d > 0 {
		tr.OtherData["dropped_events"] = d
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(tr); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTraceFile writes the Chrome trace-event JSON to path.
func (p *SpanProfiler) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = p.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteTable renders the per-site aggregate as an aligned text table,
// sorted by total time descending, with a wall-time footer. Self is each
// site's own share (total minus nested children); the self column of the
// leaf-most layers sums to the instrumented share of wall time.
func (p *SpanProfiler) WriteTable(w io.Writer) error {
	stats := p.Stats()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-9s %-20s %10s %14s %14s %12s\n",
		"layer", "span", "count", "total", "self", "avg")
	for _, s := range stats {
		avg := time.Duration(0)
		if s.Count > 0 {
			avg = s.Total / time.Duration(s.Count)
		}
		fmt.Fprintf(bw, "%-9s %-20s %10d %14s %14s %12s\n",
			s.Layer, s.Name, s.Count,
			fmtDur(s.Total), fmtDur(s.Self), fmtDur(avg))
	}
	fmt.Fprintf(bw, "wall %s", fmtDur(p.Wall()))
	if id := p.RunID(); id != "" {
		fmt.Fprintf(bw, "   run %s", id)
	}
	if d := p.Dropped(); d > 0 {
		fmt.Fprintf(bw, "   (%d span events dropped past the %d-event buffer; aggregates exact)", d, p.maxRows)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

// fmtDur rounds a duration for table display without losing short spans.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
