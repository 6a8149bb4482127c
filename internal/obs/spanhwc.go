package obs

import (
	"fmt"
	"io"

	"repro/internal/hwc"
)

// Hardware-counter attribution for the span profiler: when a live
// hwc.Session is attached, Begin/End read the calling thread's counter
// group and the per-site aggregate gains counter totals alongside its
// time totals, using the same parent/child self-attribution — a span's
// self counters are its deltas minus the deltas already attributed to
// nested children. Spans whose goroutine migrated OS threads mid-span
// are counted as dropped rather than charged with another thread's work
// (their counts remain inside the nearest same-thread ancestor's self).
// See DESIGN.md §5.7.

// hwcSample is one buffered row's counter deltas, index-aligned with
// SpanProfiler.rows while a session is attached.
type hwcSample struct {
	valid bool
	v     [hwc.MaxEvents]float64
}

// hwcAgg is a span site's counter accumulator, in session event order.
type hwcAgg struct {
	samples int64
	total   [hwc.MaxEvents]float64
	self    [hwc.MaxEvents]float64
}

// counterStats materializes the aggregate for Stats(); n caps at the
// session's event count via len(names).
func (a *hwcAgg) counterStats(names []string) []CounterStat {
	out := make([]CounterStat, len(names))
	for i, name := range names {
		out[i] = CounterStat{Name: name, Total: a.total[i], Self: a.self[i]}
	}
	return out
}

// CounterStat is one hardware event's aggregate for a span site. Total
// sums the deltas of all attributed spans; Self subtracts the share
// already attributed to nested children (the column that sums to the
// recording's counter totals across sites).
type CounterStat struct {
	Name  string
	Total float64
	Self  float64
}

// accountHW runs under p.mu: fold one span's counter deltas into its
// site aggregate, subtracting the counts its nested children claimed.
func (p *SpanProfiler) accountHW(agg *spanAgg, delta, child *[hwc.MaxEvents]float64) {
	hw := agg.hw
	if hw == nil {
		hw = &hwcAgg{}
		agg.hw = hw
	}
	hw.samples++
	for i := range delta {
		hw.total[i] += delta[i]
		self := delta[i] - child[i]
		if self < 0 {
			// Multiplex scaling can make a child's scaled counts exceed
			// the parent's window; clamp rather than go negative.
			self = 0
		}
		hw.self[i] += self
	}
}

// hwNames runs under p.mu (or on an immutable profiler) and returns the
// attached session's event names, nil without one.
func (p *SpanProfiler) hwNames() []string { return p.hwEvents }

// AttachHWC attaches a hardware-counter session to the profiler. Call
// before any spans are recorded (the field is read without the lock on
// the hot path). A nil or degraded session attaches nothing but records
// the degradation reason, so callers report one cause and move on.
func (p *SpanProfiler) AttachHWC(s *hwc.Session) {
	if s == nil {
		p.hwReason = (*hwc.Session)(nil).Reason()
		return
	}
	if r := s.Reason(); r != "" {
		p.hwReason = r
		return
	}
	p.hw = s
	p.hwEvents = s.EventNames()
}

// HWCActive reports whether a live counter session is attached.
func (p *SpanProfiler) HWCActive() bool { return p.hw != nil }

// HWCReason returns the degradation reason recorded when AttachHWC was
// given an unavailable session ("" when active or never requested).
func (p *SpanProfiler) HWCReason() string { return p.hwReason }

// HWCEventNames returns the attached session's event names in counter
// order, nil without a live session.
func (p *SpanProfiler) HWCEventNames() []string {
	return append([]string(nil), p.hwEvents...)
}

// HWCSamples returns how many spans had their counter deltas attributed.
func (p *SpanProfiler) HWCSamples() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hwcSamples
}

// HWCDropped returns how many spans' counters were discarded (thread
// migration mid-span, failed group read).
func (p *SpanProfiler) HWCDropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hwcDropped
}

// StartSpanProfilerHWC creates a profiler with the process-wide shared
// counter session attached and attaches it to the span recorder. On hosts
// without usable counters it degrades to a plain StartSpanProfiler whose
// HWCReason names the single cause.
func StartSpanProfilerHWC(maxEvents int) *SpanProfiler {
	p := NewSpanProfiler(maxEvents)
	p.AttachHWC(hwc.Shared())
	subscribe(func(f *fanout) { f.prof = p })
	return p
}

// Counter returns the site's aggregate for the named event.
func (s SpanStat) Counter(name string) (CounterStat, bool) {
	for _, c := range s.HWC {
		if c.Name == name {
			return c, true
		}
	}
	return CounterStat{}, false
}

// hwcBase returns the self value of base event idx, relying on the base
// events always occupying the leading indices of the group.
func (s SpanStat) hwcBase(idx int) (float64, bool) {
	if idx >= len(s.HWC) {
		return 0, false
	}
	return s.HWC[idx].Self, true
}

// IPC returns the site's self instructions-per-cycle (0 without samples).
func (s SpanStat) IPC() float64 {
	instr, ok1 := s.hwcBase(hwc.IdxInstructions)
	cycles, ok2 := s.hwcBase(hwc.IdxCycles)
	if !ok1 || !ok2 || cycles <= 0 {
		return 0
	}
	return instr / cycles
}

// CacheMissRate returns self cache-misses per cache-reference in [0,1]
// (0 without samples or references).
func (s SpanStat) CacheMissRate() float64 {
	miss, ok1 := s.hwcBase(hwc.IdxCacheMisses)
	refs, ok2 := s.hwcBase(hwc.IdxCacheRefs)
	if !ok1 || !ok2 || refs <= 0 {
		return 0
	}
	return miss / refs
}

// MissesPerOp returns self cache-misses per span (count-normalized), the
// "how much memory traffic does one pass cost" column.
func (s SpanStat) MissesPerOp() float64 {
	miss, ok := s.hwcBase(hwc.IdxCacheMisses)
	if !ok || s.HWCSamples <= 0 {
		return 0
	}
	return miss / float64(s.HWCSamples)
}

// CyclesPerOp returns self cycles per span.
func (s SpanStat) CyclesPerOp() float64 {
	cycles, ok := s.hwcBase(hwc.IdxCycles)
	if !ok || s.HWCSamples <= 0 {
		return 0
	}
	return cycles / float64(s.HWCSamples)
}

// WriteHWCPrometheus appends the profiler's hardware-counter families to
// a Prometheus text exposition: per-site self counter totals, per-site
// IPC, and the attribution bookkeeping. No-op without a live session.
func (p *SpanProfiler) WriteHWCPrometheus(w io.Writer) error {
	if p == nil || !p.HWCActive() {
		return nil
	}
	stats := p.Stats()
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("# HELP qs_hwc_samples_total Spans with attributed hardware-counter deltas.\n")
	pf("# TYPE qs_hwc_samples_total counter\n")
	pf("qs_hwc_samples_total %d\n", p.HWCSamples())
	pf("# HELP qs_hwc_dropped_total Spans whose counters were discarded (thread migration, read failure).\n")
	pf("# TYPE qs_hwc_dropped_total counter\n")
	pf("qs_hwc_dropped_total %d\n", p.HWCDropped())
	pf("# HELP qs_hwc_counter_self_total Self-attributed hardware-counter totals per span site.\n")
	pf("# TYPE qs_hwc_counter_self_total counter\n")
	for _, s := range stats {
		for _, c := range s.HWC {
			pf("qs_hwc_counter_self_total{layer=%q,span=%q,event=%q} %g\n",
				s.Layer, s.Name, c.Name, c.Self)
		}
	}
	pf("# HELP qs_hwc_phase_ipc Self instructions-per-cycle per span site.\n")
	pf("# TYPE qs_hwc_phase_ipc gauge\n")
	for _, s := range stats {
		if s.HWCSamples > 0 {
			pf("qs_hwc_phase_ipc{layer=%q,span=%q} %.4f\n", s.Layer, s.Name, s.IPC())
		}
	}
	return err
}
