package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer records the benchmark's own spans — one around each unit, each call
// the benchmark makes into the program, each output check and each per-layer
// probe — in memory, and writes them as JSON lines when the run ends. All
// spans are opened and closed on the benchmark's goroutine. A nil *tracer
// records nothing, so the untraced run pays one nil check per span site.
type tracer struct {
	t0    time.Time
	spans []spanRecord
}

// spanRecord is one span. Parent is 0 for a root span; Unit is the closed-loop
// unit the span belongs to, or -1 outside units. Times are nanoseconds since
// the tracer started.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, spanRecord{
		ID: len(t.spans) + 1, Parent: parent, Unit: unit, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// writeJSONL writes every span, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// scope is where a call site's spans attach: the tracer (nil when untraced),
// the enclosing span and the unit.
type scope struct {
	tr     *tracer
	parent int
	unit   int
}

func noop() {}

// span opens a child span of the scope and returns the function closing it.
func (s scope) span(name string) func() {
	if s.tr == nil {
		return noop
	}
	id := s.tr.begin(name, s.parent, s.unit)
	return func() { s.tr.end(id) }
}

// child returns the scope of spans nested inside a new span name, and the
// function closing that span.
func (s scope) child(name string) (scope, func()) {
	if s.tr == nil {
		return s, noop
	}
	id := s.tr.begin(name, s.parent, s.unit)
	return scope{tr: s.tr, parent: id, unit: s.unit}, func() { s.tr.end(id) }
}
