package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", ""); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	gf := r.GaugeFloat("gf", "a float gauge")
	gf.Set(2.5)
	if got := gf.Value(); got != 2.5 {
		t.Fatalf("float gauge = %g, want 2.5", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.05+0.5+5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative buckets: ≤0.01 → 1, ≤0.1 → 3, ≤1 → 4, +Inf → 5.
	for _, line := range []string{
		`h_seconds_bucket{le="0.01"} 1`,
		`h_seconds_bucket{le="0.1"} 3`,
		`h_seconds_bucket{le="1"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestPrometheusExpositionConformance pins the exposition details scrapers
// depend on: the +Inf bucket equals _count exactly, bucket counts are
// cumulative (monotonically non-decreasing down the ladder), and per-series
// lines for a labeled histogram carry the label on every _bucket/_sum/_count.
func TestPrometheusExpositionConformance(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat_seconds{op="solve"}`, "latency", []float64{0.25, 0.5})
	for _, v := range []float64{0.1, 0.3, 0.3, 0.7, 9} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`lat_seconds_bucket{op="solve",le="0.25"} 1`,
		`lat_seconds_bucket{op="solve",le="0.5"} 3`,
		`lat_seconds_bucket{op="solve",le="+Inf"} 5`,
		`lat_seconds_sum{op="solve"} 10.4`,
		`lat_seconds_count{op="solve"} 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	// Cumulative monotonicity + +Inf == _count, parsed rather than pinned.
	var counts []int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lat_seconds_bucket") {
			var n int64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
				t.Fatalf("unparseable bucket line %q", line)
			}
			counts = append(counts, n)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("bucket lines = %d, want 3", len(counts))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", counts)
		}
	}
	if counts[len(counts)-1] != h.Count() {
		t.Fatalf("+Inf bucket = %d, _count = %d", counts[len(counts)-1], h.Count())
	}
}

func TestHistogramObserveGuards(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("g_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(math.NaN()) // dropped: would poison the sum forever
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("after NaN observe: count=%d sum=%g, want 1, 0.5", h.Count(), h.Sum())
	}
	// -Inf and +Inf still land in buckets without breaking cumulative order.
	h.Observe(math.Inf(1))
	if h.Count() != 2 {
		t.Fatalf("count after +Inf observe = %d, want 2", h.Count())
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`pa"th`, `pa\"th`},
		{`a\b`, `a\\b`},
		{"two\nlines", `two\nlines`},
		{`all"three` + "\n" + `\`, `all\"three\n\\`},
	} {
		if got := EscapeLabel(tc.in); got != tc.want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Round trip through the exposition writer: the escaped value yields a
	// line a conformant parser reads back as the original string.
	r := NewRegistry()
	r.Counter(`files_total{path="`+EscapeLabel(`C:\a "b"`)+`"}`, "").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `files_total{path="C:\\a \"b\""} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
}

func TestWritePrometheusFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(`apples_total{kind="red"}`, "apples by kind").Add(3)
	r.Counter(`apples_total{kind="green"}`, "apples by kind").Add(2)
	r.Gauge("depth", "queue depth").Set(9)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE apples_total counter"); got != 1 {
		t.Errorf("TYPE header for family emitted %d times, want 1:\n%s", got, out)
	}
	for _, line := range []string{
		`apples_total{kind="green"} 2`,
		`apples_total{kind="red"} 3`,
		"# HELP apples_total apples by kind",
		"# TYPE depth gauge",
		"depth 9",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "").Add(11)
	r.Histogram("d_seconds", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if got := snap["n_total"]; got != int64(11) {
		t.Fatalf("snapshot n_total = %v, want 11", got)
	}
	hm, ok := snap["d_seconds"].(map[string]any)
	if !ok || hm["count"] != int64(1) || hm["sum"] != 0.5 {
		t.Fatalf("snapshot histogram = %v", snap["d_seconds"])
	}
}

// TestConcurrentMetricUpdates exercises the lock-free update paths under
// the race detector (CI runs this package with -race).
func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", SecondsBuckets())
	gf := r.GaugeFloat("conc_last", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				gf.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestSecondsBucketsShape(t *testing.T) {
	b := SecondsBuckets()
	if len(b) == 0 || b[0] != 1e-6 {
		t.Fatalf("buckets = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending: %v", b)
		}
	}
}
