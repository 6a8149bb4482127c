package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Convergence-trace recorder: collects the per-iteration (iter, λ̃, R)
// stream and the solver lifecycle events of one or many eigensolves, for
// export as TSV or JSONL. A TraceRecorder satisfies core.Observer
// structurally (Step/Event), so the trace plugs into PowerOptions.Observer
// without this package importing internal/core.

// TraceRow is one record of a convergence trace. Event is "" for plain
// residual-check steps and a lifecycle tag (start, converged, stagnated,
// budget_exhausted, breakdown, aborted) otherwise. Method names the
// eigensolver gear that produced the row ("power", "chebyshev",
// "shift_invert", …); it may change mid-label when an adaptive solve falls
// through several gears on one point, and is "" for recordings made
// before the solver reported it.
type TraceRow struct {
	// RunID names the flight-recorded run the row belongs to ("" for
	// recordings made outside a flight).
	RunID    string  `json:"run_id,omitempty"`
	Label    string  `json:"label,omitempty"`
	Iter     int     `json:"iter"`
	Lambda   float64 `json:"lambda"`
	Residual float64 `json:"residual"`
	Event    string  `json:"event,omitempty"`
	Method   string  `json:"method,omitempty"`
}

// traceRowJSON is TraceRow's wire shape: the same keys, with λ and the
// residual as jsonFloat so the NaN rows of a breakdown encode.
type traceRowJSON struct {
	RunID    string    `json:"run_id,omitempty"`
	Label    string    `json:"label,omitempty"`
	Iter     int       `json:"iter"`
	Lambda   jsonFloat `json:"lambda"`
	Residual jsonFloat `json:"residual"`
	Event    string    `json:"event,omitempty"`
	Method   string    `json:"method,omitempty"`
}

func (r TraceRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceRowJSON{
		RunID: r.RunID, Label: r.Label, Iter: r.Iter, Lambda: jsonFloat(r.Lambda),
		Residual: jsonFloat(r.Residual), Event: r.Event, Method: r.Method,
	})
}

// jsonFloat is a float64 whose JSON form survives NaN and ±Inf, which
// encoding/json refuses: finite values encode as a float64 does, the
// others as the strings "NaN", "+Inf" and "-Inf". Trace exports and
// bundles are write-only, so there is no decoder.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(float64(f))
}

// Trace accumulates convergence rows from one or more solves. Recorders
// append under a mutex, so one Trace may serve concurrent sweep workers;
// rows of interleaved solves are distinguished by their labels.
type Trace struct {
	mu    sync.Mutex
	every int
	runID string
	rows  []TraceRow
}

// NewTrace returns a trace that keeps every `every`-th Step row of each
// recorder (and all Event rows); every ≤ 1 keeps all steps. Thinning keeps
// trace files of slowly converging solves near the error threshold at
// plottable size without losing the stagnation signature. A trace created
// during a flight belongs to that run: its rows carry the flight's run
// ID, tying exported trace files to their manifest.
func NewTrace(every int) *Trace {
	if every < 1 {
		every = 1
	}
	t := &Trace{every: every}
	if fl := ActiveFlight(); fl != nil {
		t.runID = fl.RunID()
	}
	return t
}

func (t *Trace) push(row TraceRow) {
	t.mu.Lock()
	t.rows = append(t.rows, row)
	t.mu.Unlock()
}

// Rows returns a copy of the recorded rows in append order.
func (t *Trace) Rows() []TraceRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRow, len(t.rows))
	copy(out, t.rows)
	return out
}

// Recorder returns a per-solve recorder whose rows carry the given label
// (e.g. "p=0.0312"). The recorder is not safe for concurrent use — one
// recorder per solve, as PowerOptions.Observer prescribes.
func (t *Trace) Recorder(label string) *TraceRecorder {
	return &TraceRecorder{sink: t, every: t.every, runID: t.runID, label: label}
}

// TraceRecorder records one solve's convergence stream into its sink: a
// Trace, or a flight's trace ring. Its method set matches core.Observer.
type TraceRecorder struct {
	sink    interface{ push(TraceRow) }
	every   int
	runID   string
	label   string
	method  string
	steps   int
	pending TraceRow // last thinned-away step, flushed by a terminal Event
	hasPend bool
}

// Method labels subsequent rows with the solve method that produces them.
// The core solvers call it through their optional methodReporter hook at
// solve start, so adaptive sweeps that retry a point with another gear
// relabel the stream mid-trace.
func (r *TraceRecorder) Method(kind string) { r.method = kind }

func (r *TraceRecorder) row(iter int, lambda, residual float64, event string) TraceRow {
	return TraceRow{
		RunID: r.runID, Label: r.label, Iter: iter, Lambda: lambda,
		Residual: residual, Event: event, Method: r.method,
	}
}

// Step records a residual check, thinned to the every-N setting. A
// thinned-away step is held as pending so the trace never loses the final
// pre-convergence residual: when a terminal Event arrives, the last step is
// flushed even if it fell between every-N samples.
func (r *TraceRecorder) Step(iter int, lambda, residual float64) {
	r.steps++
	if r.every > 1 && r.steps%r.every != 0 {
		r.pending = r.row(iter, lambda, residual, "")
		r.hasPend = true
		return
	}
	r.hasPend = false
	r.sink.push(r.row(iter, lambda, residual, ""))
}

// Event records a solver lifecycle event (never thinned). Any event other
// than the opening "start" terminates the solve, so it first flushes the
// pending thinned step — the residual check the outcome was decided on.
func (r *TraceRecorder) Event(event string, iter int, lambda, residual float64) {
	if r.hasPend && event != "start" {
		r.sink.push(r.pending)
		r.hasPend = false
	}
	r.sink.push(r.row(iter, lambda, residual, event))
}

// WriteTSV renders the trace as tab-separated values with a header row.
func (t *Trace) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "label\titer\tlambda\tresidual\tevent\tmethod")
	for _, r := range t.Rows() {
		fmt.Fprintf(bw, "%s\t%d\t%.17g\t%.6g\t%s\t%s\n", r.Label, r.Iter, r.Lambda, r.Residual, r.Event, r.Method)
	}
	return bw.Flush()
}

// WriteJSONL renders the trace as one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Rows() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to path, choosing JSONL for a .jsonl (or
// .json) extension and TSV otherwise.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
		err = t.WriteJSONL(f)
	} else {
		err = t.WriteTSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
