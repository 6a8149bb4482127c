// Package obs is the solver's zero-dependency observability layer: a
// process-wide metrics registry (atomic counters, gauges, bounded
// histograms) with Prometheus-text and expvar exposition, an HTTP debug
// server bundling /metrics, /debug/vars and net/http/pprof, the span
// profiler, the flight recorder, and a convergence-trace recorder for the
// power iterations.
//
// One hook, many subscribers: the solver packages (mutation, device,
// batch, core) report only to the internal/span recorder. obs installs
// that recorder (hook.go) and fans its events out to the span profiler
// and to the qs_* metric families (wire.go); the flight recorder reads
// the profiler's span stream. The per-solve convergence trace stays a
// separate, explicit PowerOptions.Observer.
//
// Design contract (enforced by tests in internal/core, internal/mutation
// and here): with nothing subscribed the solver hot paths pay exactly one
// atomic pointer load per instrumented site — no allocations, no timing
// calls, bit-identical numerics; with metrics enabled and no profile
// recording they still allocate nothing.
//
// The solver packages never import obs. It reaches into them only for
// their exported span names and always-on counters (wire.go) and for the
// batch panic hook the flight recorder installs.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the Prometheus counter contract).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic integer gauge (set/add, may decrease).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFloat is an atomic float64 gauge.
type GaugeFloat struct{ bits atomic.Uint64 }

// Set stores v.
func (g *GaugeFloat) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *GaugeFloat) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a bounded histogram with fixed bucket upper bounds: values
// land in the first bucket whose bound is ≥ v, with an implicit +Inf
// bucket. Observe is lock-free (atomic per-bucket counters; the sum is a
// CAS loop), so histograms are safe for concurrent use from kernel hooks.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records v. NaN observations are dropped: they would land in the
// +Inf bucket but poison the sum, so every later scrape of _sum would read
// NaN and rate() over the series would be empty.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// SecondsBuckets is the default duration bucket ladder (seconds): a ×4
// geometric grid from 1µs to ~67s, wide enough for single butterfly stage
// passes and whole sweep tasks alike while staying at 14 buckets.
func SecondsBuckets() []float64 {
	b := make([]float64, 0, 14)
	for v := 1e-6; v < 100; v *= 4 {
		b = append(b, v)
	}
	return b
}

// ---------------------------------------------------------------------------
// Registry

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFloat
	kindHistogram
)

type entry struct {
	name string // full name, possibly with a {label="v"} suffix
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	gf   *GaugeFloat
	h    *Histogram
}

// family returns the metric family name (the name without its label set);
// HELP/TYPE headers are emitted once per family.
func (e *entry) family() string {
	if i := strings.IndexByte(e.name, '{'); i >= 0 {
		return e.name[:i]
	}
	return e.name
}

// labels returns the label set without braces ("" when unlabeled).
func (e *entry) labels() string {
	if i := strings.IndexByte(e.name, '{'); i >= 0 {
		return strings.TrimSuffix(e.name[i+1:], "}")
	}
	return ""
}

// Registry is a named collection of metrics. Metric registration takes a
// lock; the returned metric handles are lock-free. Names follow the
// Prometheus convention and may carry a fixed label set, e.g.
// `qs_kernel_applies_total{kind="apply"}` — metrics sharing a family must
// share a kind and are grouped under one HELP/TYPE header.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

var std = NewRegistry()

// Default returns the process-wide registry used by the solver hooks and
// served by the debug HTTP endpoints.
func Default() *Registry { return std }

func (r *Registry) register(name, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindGaugeFloat:
		e.gf = &GaugeFloat{}
	}
	r.entries[name] = e
	return e
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter).c
}

// Gauge returns (registering on first use) the named integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).g
}

// GaugeFloat returns (registering on first use) the named float gauge.
func (r *Registry) GaugeFloat(name, help string) *GaugeFloat {
	return r.register(name, help, kindGaugeFloat).gf
}

// Histogram returns (registering on first use) the named histogram with
// the given ascending bucket upper bounds (+Inf is implicit). The bounds
// of an existing histogram are kept.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	e := r.register(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		e.h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}
	return e.h
}

// sorted returns the entries in name order.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), entries sorted by name, one HELP/TYPE header per
// family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range r.sorted() {
		fam := e.family()
		if fam != lastFamily {
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", fam, e.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, map[metricKind]string{
				kindCounter: "counter", kindGauge: "gauge",
				kindGaugeFloat: "gauge", kindHistogram: "histogram",
			}[e.kind])
			lastFamily = fam
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.g.Value())
		case kindGaugeFloat:
			fmt.Fprintf(bw, "%s %g\n", e.name, e.gf.Value())
		case kindHistogram:
			labels := e.labels()
			cum := int64(0)
			for i, b := range e.h.bounds {
				cum += e.h.counts[i].Load()
				fmt.Fprintf(bw, "%s_bucket{%sle=%q} %d\n", fam, joinLabels(labels), formatBound(b), cum)
			}
			cum += e.h.counts[len(e.h.bounds)].Load()
			fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, joinLabels(labels), cum)
			if labels == "" {
				fmt.Fprintf(bw, "%s_sum %g\n", fam, e.h.Sum())
				fmt.Fprintf(bw, "%s_count %d\n", fam, e.h.Count())
			} else {
				fmt.Fprintf(bw, "%s_sum{%s} %g\n", fam, labels, e.h.Sum())
				fmt.Fprintf(bw, "%s_count{%s} %d\n", fam, labels, e.h.Count())
			}
		}
	}
	return bw.Flush()
}

func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// EscapeLabel escapes a label value for the Prometheus text exposition
// format: backslash, double quote and newline must be written as \\, \"
// and \n inside the quoted value. Use it when building labeled metric
// names from run-time strings (landscape names, file paths).
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Snapshot returns a flat name→value map of the registry, the form
// published under /debug/vars and written into flight bundles. Histograms
// appear as {count, sum}; float gauges are jsonFloat, so a breakdown's
// NaN last residual still encodes.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			out[e.name] = e.c.Value()
		case kindGauge:
			out[e.name] = e.g.Value()
		case kindGaugeFloat:
			out[e.name] = jsonFloat(e.gf.Value())
		case kindHistogram:
			out[e.name] = map[string]any{"count": e.h.Count(), "sum": e.h.Sum()}
		}
	}
	return out
}
