package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hwc"
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
		case core.SolveKindPower, core.SolveKindLanczos, core.SolveKindShiftInvert, core.SolveKindChebyshev:
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
	var hwrows []hwcSample
	if p.hw != nil {
		hwrows = make([]hwcSample, len(p.hwrows))
		copy(hwrows, p.hwrows)
	}
	p.mu.Unlock()
	names := p.hwNames()
	events := make([]chromeEvent, 0, len(rows))
	for i, r := range rows {
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
		if i < len(hwrows) && hwrows[i].valid {
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			for j, name := range names {
				ev.Args[name] = int64(hwrows[i].v[j])
			}
			if cycles := hwrows[i].v[hwc.IdxCycles]; cycles > 0 {
				ipc := hwrows[i].v[hwc.IdxInstructions] / cycles
				ev.Args["ipc"] = float64(int64(ipc*100)) / 100
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
	if p.HWCActive() {
		tr.OtherData["hwc_events"] = names
		tr.OtherData["hwc_samples"] = p.HWCSamples()
		if d := p.HWCDropped(); d > 0 {
			tr.OtherData["hwc_dropped"] = d
		}
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
	hw := p.HWCActive()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-9s %-20s %10s %14s %14s %12s",
		"layer", "span", "count", "total", "self", "avg")
	if hw {
		fmt.Fprintf(bw, " %6s %7s %12s %12s", "ipc", "miss%", "miss/op", "cyc/op")
	}
	fmt.Fprintln(bw)
	for _, s := range stats {
		avg := time.Duration(0)
		if s.Count > 0 {
			avg = s.Total / time.Duration(s.Count)
		}
		fmt.Fprintf(bw, "%-9s %-20s %10d %14s %14s %12s",
			s.Layer, s.Name, s.Count,
			fmtDur(s.Total), fmtDur(s.Self), fmtDur(avg))
		if hw {
			if s.HWCSamples > 0 {
				fmt.Fprintf(bw, " %6.2f %6.1f%% %12s %12s",
					s.IPC(), 100*s.CacheMissRate(),
					fmtCount(s.MissesPerOp()), fmtCount(s.CyclesPerOp()))
			} else {
				fmt.Fprintf(bw, " %6s %7s %12s %12s", "-", "-", "-", "-")
			}
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "wall %s", fmtDur(p.Wall()))
	if id := p.RunID(); id != "" {
		fmt.Fprintf(bw, "   run %s", id)
	}
	if d := p.Dropped(); d > 0 {
		fmt.Fprintf(bw, "   (%d span events dropped past the %d-event buffer; aggregates exact)", d, p.maxRows)
	}
	if hw {
		fmt.Fprintf(bw, "   hwc: %d spans attributed", p.HWCSamples())
		if d := p.HWCDropped(); d > 0 {
			fmt.Fprintf(bw, ", %d dropped (thread migration)", d)
		}
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

// fmtCount renders a per-op counter magnitude compactly (1.2k, 3.4M).
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
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
