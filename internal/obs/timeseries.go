package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Continuous telemetry: fixed-capacity time-series rings fed by a
// background sampler goroutine (sampler.go). A TimeSeries retains the most
// recent Capacity (timestamp, value) points with a lock-free single-writer
// append — the sampler tick stores two atomics per point — and serves
// windowed aggregate queries (min/max/mean/quantile, and for cumulative
// series a per-second rate) to /debug/telemetry and the flight-recorder
// bundles. Readers never block the writer: a snapshot re-validates the
// append cursor after copying and drops any points the writer overwrote
// mid-read, so a scrape racing a tick loses at most the oldest points of
// the window, never coherence.

// SeriesKind distinguishes how a series' values aggregate over a window.
type SeriesKind int

const (
	// SeriesGauge values are instantaneous levels (RSS bytes, queue depth):
	// windows aggregate by min/max/mean/quantile.
	SeriesGauge SeriesKind = iota
	// SeriesCumulative values are monotone running totals (points solved,
	// chunks stolen): the interesting window aggregate is the rate, the
	// increase per second between the window's earliest and latest points.
	SeriesCumulative
)

func (k SeriesKind) String() string {
	if k == SeriesCumulative {
		return "cumulative"
	}
	return "gauge"
}

// Point is one retained observation.
type Point struct {
	// T is the observation time in nanoseconds since the Unix epoch.
	T int64 `json:"unix_ns"`
	// V is the observed value.
	V float64 `json:"value"`
}

// TimeSeries is a fixed-capacity ring of timestamped observations with one
// writer (the sampler goroutine) and any number of concurrent readers.
type TimeSeries struct {
	name string
	unit string
	kind SeriesKind

	ts []atomic.Int64  // unix nanos per slot
	vs []atomic.Uint64 // float64 bits per slot
	n  atomic.Int64    // total points ever appended (append cursor)
}

// NewTimeSeries returns an empty series retaining the last capacity points
// (capacity < 16 selects 16). unit is a display hint ("bytes", "1", "1/s").
func NewTimeSeries(name, unit string, kind SeriesKind, capacity int) *TimeSeries {
	if capacity < 16 {
		capacity = 16
	}
	return &TimeSeries{
		name: name, unit: unit, kind: kind,
		ts: make([]atomic.Int64, capacity),
		vs: make([]atomic.Uint64, capacity),
	}
}

// Name returns the series name.
func (s *TimeSeries) Name() string { return s.name }

// Unit returns the series' display unit.
func (s *TimeSeries) Unit() string { return s.unit }

// Kind returns the series kind.
func (s *TimeSeries) Kind() SeriesKind { return s.kind }

// Capacity returns the ring capacity.
func (s *TimeSeries) Capacity() int { return len(s.ts) }

// Total returns the number of points ever appended.
func (s *TimeSeries) Total() int64 { return s.n.Load() }

// Append records (t, v), overwriting the oldest point when full. NaN values
// are dropped (they would poison every window aggregate). Append is
// lock-free but single-writer: concurrent appends require external
// serialization (the sampler goroutine is the only writer in practice).
func (s *TimeSeries) Append(t time.Time, v float64) {
	if math.IsNaN(v) {
		return
	}
	n := s.n.Load()
	i := int(n % int64(len(s.ts)))
	s.ts[i].Store(t.UnixNano())
	s.vs[i].Store(math.Float64bits(v))
	// The release store readers synchronize on: a point is visible only
	// after both its slots are written.
	s.n.Store(n + 1)
}

// Snapshot copies out the retained points in append order. Points the
// writer overwrote while the copy was in flight are dropped from the front,
// so the result is always coherent (every returned point was fully written
// and never torn).
func (s *TimeSeries) Snapshot() []Point {
	for {
		n0 := s.n.Load()
		count := n0
		if count > int64(len(s.ts)) {
			count = int64(len(s.ts))
		}
		if count == 0 {
			return nil
		}
		out := make([]Point, 0, count)
		for k := n0 - count; k < n0; k++ {
			i := int(k % int64(len(s.ts)))
			out = append(out, Point{T: s.ts[i].Load(), V: math.Float64frombits(s.vs[i].Load())})
		}
		n1 := s.n.Load()
		if n1 == n0 {
			return out
		}
		// The writer advanced mid-copy: points with index < n1-cap may have
		// been overwritten (possibly torn). Drop them; retry if the writer
		// lapped the whole copy.
		valid := n1 - int64(len(s.ts))
		if valid <= n0-count {
			return out
		}
		drop := valid - (n0 - count)
		if drop < count {
			return out[drop:]
		}
		// Fully lapped (reader descheduled for cap ticks): start over.
	}
}

// WindowStats are the aggregates of a series over one query window.
// Quantiles and rate are computed from the retained points whose timestamp
// falls inside the window; out-of-order timestamps are tolerated (points
// are filtered and ranked by timestamp, not ring position).
type WindowStats struct {
	Points int     `json:"points"`
	First  float64 `json:"first"`
	Last   float64 `json:"last"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	// RatePerSec is the value increase per second between the window's
	// earliest and latest timestamps — meaningful for cumulative series
	// (points/sec, steals/sec). 0 when the window spans < 2 distinct times.
	RatePerSec float64 `json:"rate_per_sec"`
	// SpanSeconds is the wall time between the earliest and latest points.
	SpanSeconds float64 `json:"span_seconds"`
}

// Last returns the most recently appended point, or false when empty.
func (s *TimeSeries) Last() (Point, bool) {
	pts := s.Snapshot()
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

// Window aggregates the retained points observed at or after cutoff.
// A zero cutoff aggregates everything retained. An empty window returns
// ok == false.
func (s *TimeSeries) Window(cutoff time.Time) (WindowStats, bool) {
	return aggregate(s.Snapshot(), cutoff.UnixNano())
}

// aggregate computes WindowStats over the points with T >= cutoffNS.
func aggregate(pts []Point, cutoffNS int64) (WindowStats, bool) {
	in := pts[:0:0]
	for _, p := range pts {
		if p.T >= cutoffNS {
			in = append(in, p)
		}
	}
	if len(in) == 0 {
		return WindowStats{}, false
	}
	// Rank by timestamp: the ring is append-ordered, but sources with their
	// own clocks (imported snapshots, merged rings) may interleave.
	sort.SliceStable(in, func(i, j int) bool { return in[i].T < in[j].T })
	st := WindowStats{
		Points: len(in),
		First:  in[0].V,
		Last:   in[len(in)-1].V,
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	sum := 0.0
	vals := make([]float64, len(in))
	for i, p := range in {
		vals[i] = p.V
		sum += p.V
		if p.V < st.Min {
			st.Min = p.V
		}
		if p.V > st.Max {
			st.Max = p.V
		}
	}
	st.Mean = sum / float64(len(in))
	sort.Float64s(vals)
	st.P50 = quantile(vals, 0.50)
	st.P99 = quantile(vals, 0.99)
	spanNS := in[len(in)-1].T - in[0].T
	st.SpanSeconds = float64(spanNS) / 1e9
	if spanNS > 0 {
		st.RatePerSec = (st.Last - st.First) / st.SpanSeconds
	}
	return st, true
}

// quantile returns the q-quantile of sorted vals by linear interpolation.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	if len(vals) == 1 {
		return vals[0]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1]
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// seriesPointJSON is the JSONL export shape: one line per point, tagged
// with its series so a bundle's telemetry.jsonl is self-describing.
type seriesPointJSON struct {
	Series string  `json:"series"`
	Kind   string  `json:"kind"`
	Unit   string  `json:"unit,omitempty"`
	UnixMS int64   `json:"unix_ms"`
	Value  float64 `json:"value"`
}

// WriteJSONL writes the retained points of every series as one JSON object
// per line, in series order then time order — the flight-bundle and CI
// artifact format.
func WriteSeriesJSONL(w io.Writer, series []*TimeSeries) error {
	bw := bufio.NewWriter(w)
	for _, s := range series {
		for _, p := range s.Snapshot() {
			// Hand-rolled fixed shape: no reflection surprises, stable field
			// order for line-oriented tooling.
			j := seriesPointJSON{
				Series: s.Name(), Kind: s.Kind().String(), Unit: s.Unit(),
				UnixMS: p.T / 1e6, Value: p.V,
			}
			if _, err := fmt.Fprintf(bw, `{"series":%q,"kind":%q,"unit":%q,"unix_ms":%d,"value":%g}`+"\n",
				j.Series, j.Kind, j.Unit, j.UnixMS, j.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// sparkline renders vals as a fixed-width Unicode block sparkline, the
// ?format=text cell renderer. Width ≤ 0 selects len(vals); longer inputs
// are tail-truncated, shorter ones left-padded with spaces.
func sparkline(vals []float64, width int) string {
	const blocks = "▁▂▃▄▅▆▇█"
	if width <= 0 {
		width = len(vals)
	}
	if width == 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b []rune
	for i := 0; i < width-len(vals); i++ {
		b = append(b, ' ')
	}
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * 7.999)
		}
		if idx < 0 {
			idx = 0
		}
		if idx > 7 {
			idx = 7
		}
		b = append(b, []rune(blocks)[idx])
	}
	return string(b)
}

// seriesSet is the sampler's ordered, name-indexed series collection.
type seriesSet struct {
	mu     sync.Mutex
	order  []*TimeSeries
	byName map[string]*TimeSeries
}

func (ss *seriesSet) add(s *TimeSeries) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.byName == nil {
		ss.byName = make(map[string]*TimeSeries)
	}
	if _, dup := ss.byName[s.name]; dup {
		return
	}
	ss.byName[s.name] = s
	ss.order = append(ss.order, s)
}

func (ss *seriesSet) all() []*TimeSeries {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]*TimeSeries, len(ss.order))
	copy(out, ss.order)
	return out
}

func (ss *seriesSet) get(name string) *TimeSeries {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.byName[name]
}
