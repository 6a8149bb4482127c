package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func ts(sec int64) time.Time { return time.Unix(sec, 0) }

// TestTimeSeriesWrapAround guards the ring contract: a series filled past
// capacity retains exactly the newest capacity points, in append order.
func TestTimeSeriesWrapAround(t *testing.T) {
	s := NewTimeSeries("x", "1", SeriesGauge, 16)
	for i := 0; i < 40; i++ {
		s.Append(ts(int64(i)), float64(i))
	}
	if got := len(s.Snapshot()); got != 16 {
		t.Fatalf("retained %d points, want 16", got)
	}
	if got := s.Total(); got != 40 {
		t.Fatalf("Total = %d, want 40", got)
	}
	pts := s.Snapshot()
	if len(pts) != 16 {
		t.Fatalf("Snapshot len = %d, want 16", len(pts))
	}
	for i, p := range pts {
		want := float64(24 + i) // oldest retained point is append #24
		if p.V != want {
			t.Fatalf("pts[%d].V = %g, want %g", i, p.V, want)
		}
	}
}

// TestTimeSeriesCapacityFloorAndNaN: tiny capacities are clamped to 16,
// and NaN values are dropped rather than poisoning the aggregates.
func TestTimeSeriesCapacityFloorAndNaN(t *testing.T) {
	s := NewTimeSeries("x", "1", SeriesGauge, 2)
	if len(s.ts) != 16 {
		t.Fatalf("capacity = %d, want 16", len(s.ts))
	}
	s.Append(ts(1), math.NaN())
	if n := len(s.Snapshot()); n != 0 {
		t.Fatalf("NaN was retained: %d points", n)
	}
	s.Append(ts(2), 5)
	st, ok := s.Window(time.Time{})
	if !ok || st.Points != 1 || st.Mean != 5 {
		t.Fatalf("Window after NaN drop = %+v ok=%v", st, ok)
	}
}

// TestTimeSeriesEmptyWindow: an empty series and a cutoff past every point
// both report ok == false instead of zero-filled stats.
func TestTimeSeriesEmptyWindow(t *testing.T) {
	s := NewTimeSeries("x", "1", SeriesGauge, 16)
	if _, ok := s.Window(time.Time{}); ok {
		t.Fatal("empty series reported a window")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("empty series reported a last point")
	}
	s.Append(ts(10), 1)
	if _, ok := s.Window(ts(11)); ok {
		t.Fatal("future cutoff reported a window")
	}
	if st, ok := s.Window(ts(10)); !ok || st.Points != 1 {
		t.Fatalf("inclusive cutoff: %+v ok=%v", st, ok)
	}
}

// TestTimeSeriesOutOfOrderTimestamps: aggregates rank points by timestamp,
// so first/last/rate are right even when appends arrived out of order.
func TestTimeSeriesOutOfOrderTimestamps(t *testing.T) {
	s := NewTimeSeries("x", "1", SeriesCumulative, 16)
	s.Append(ts(30), 300)
	s.Append(ts(10), 100)
	s.Append(ts(20), 200)
	st, ok := s.Window(time.Time{})
	if !ok {
		t.Fatal("no window")
	}
	if st.First != 100 || st.Last != 300 {
		t.Fatalf("First/Last = %g/%g, want 100/300", st.First, st.Last)
	}
	if st.SpanSeconds != 20 {
		t.Fatalf("SpanSeconds = %g, want 20", st.SpanSeconds)
	}
	if st.RatePerSec != 10 { // (300-100)/20s
		t.Fatalf("RatePerSec = %g, want 10", st.RatePerSec)
	}
}

// TestWindowStatsQuantiles checks min/max/mean/p50/p99 on a known ramp.
func TestWindowStatsQuantiles(t *testing.T) {
	s := NewTimeSeries("x", "1", SeriesGauge, 128)
	for i := 1; i <= 100; i++ {
		s.Append(ts(int64(i)), float64(i))
	}
	st, ok := s.Window(time.Time{})
	if !ok {
		t.Fatal("no window")
	}
	if st.Min != 1 || st.Max != 100 {
		t.Fatalf("Min/Max = %g/%g", st.Min, st.Max)
	}
	if st.Mean != 50.5 {
		t.Fatalf("Mean = %g, want 50.5", st.Mean)
	}
	if st.P50 != 50.5 { // interpolated between 50 and 51
		t.Fatalf("P50 = %g, want 50.5", st.P50)
	}
	if st.P99 < 99 || st.P99 > 100 {
		t.Fatalf("P99 = %g, want within [99, 100]", st.P99)
	}
}

// TestTimeSeriesSnapshotUnderConcurrentAppend: a reader racing the writer
// must never observe a torn point. Values encode their own timestamps so
// coherence is checkable per point.
func TestTimeSeriesSnapshotUnderConcurrentAppend(t *testing.T) {
	s := NewTimeSeries("race", "1", SeriesGauge, 64)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			s.Append(time.Unix(0, int64(i+1)), float64(i+1))
		}
	}()
	for k := 0; k < 200; k++ {
		for _, p := range s.Snapshot() {
			if p.V != float64(p.T) {
				t.Fatalf("torn point: T=%d V=%g", p.T, p.V)
			}
		}
	}
	wg.Wait()
	pts := s.Snapshot()
	if len(pts) != 64 {
		t.Fatalf("final Snapshot len = %d, want 64", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T != pts[i-1].T+1 {
			t.Fatalf("snapshot not contiguous at %d: %d then %d", i, pts[i-1].T, pts[i].T)
		}
	}
}

// TestWriteSeriesJSONL checks the export shape: one self-describing JSON
// object per point, series then time order.
func TestWriteSeriesJSONL(t *testing.T) {
	a := NewTimeSeries("alpha", "bytes", SeriesGauge, 16)
	a.Append(time.UnixMilli(1500), 42)
	b := NewTimeSeries("beta", "1", SeriesCumulative, 16)
	b.Append(time.UnixMilli(2500), 7)
	var sb strings.Builder
	if err := WriteSeriesJSONL(&sb, []*TimeSeries{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	if want := `{"series":"alpha","kind":"gauge","unit":"bytes","unix_ms":1500,"value":42}`; lines[0] != want {
		t.Fatalf("line 0 = %s\nwant      %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"series":"beta"`) || !strings.Contains(lines[1], `"kind":"cumulative"`) {
		t.Fatalf("line 1 = %s", lines[1])
	}
}

// TestSparkline pins the renderer's shape rules: fixed width, left padding,
// flat series map to the lowest block.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 0); got != "" {
		t.Fatalf("empty = %q", got)
	}
	got := sparkline([]float64{0, 7}, 2)
	if got != "▁█" {
		t.Fatalf("ramp = %q, want ▁█", got)
	}
	if got := sparkline([]float64{5, 5, 5}, 3); got != "▁▁▁" {
		t.Fatalf("flat = %q, want ▁▁▁", got)
	}
	if got := sparkline([]float64{1}, 4); got != "   ▁" {
		t.Fatalf("padded = %q", got)
	}
	if got := sparkline([]float64{0, 1, 2, 3}, 2); got != "▁█" {
		t.Fatalf("truncated = %q, want tail ▁█", got)
	}
}
