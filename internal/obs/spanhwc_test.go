package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/hwc"
	"repro/internal/span"
)

// TestHWCAttachDegraded pins the degradation contract: attaching a nil or
// unavailable session records ONE reason, leaves the profiler fully
// functional and keeps the hot path free of counter reads.
func TestHWCAttachDegraded(t *testing.T) {
	p := NewSpanProfiler(0)
	p.AttachHWC(nil)
	if p.HWCActive() {
		t.Fatal("nil session attached as active")
	}
	if p.HWCReason() == "" {
		t.Error("nil attach recorded no reason")
	}

	s := hwc.Open("definitely-not-an-event") // degraded on every host
	p2 := NewSpanProfiler(0)
	p2.AttachHWC(s)
	if p2.HWCActive() {
		t.Fatal("degraded session attached as active")
	}
	if !strings.Contains(p2.HWCReason(), "definitely-not-an-event") {
		t.Errorf("reason = %q", p2.HWCReason())
	}
	// The profiler still records time normally.
	subscribe(func(f *fanout) { f.prof = p2 })
	span.End(span.Begin(span.LayerCore, "matvec"), 1, 0)
	p2.Stop()
	if st := spanStat(t, p2, span.LayerCore, "matvec"); st.Count != 1 || st.HWCSamples != 0 {
		t.Errorf("degraded-profile stat = %+v", st)
	}
}

// TestHWCAccounting drives the parent/child counter attribution directly
// with synthetic deltas (the live path needs a PMU): self = delta − child,
// clamped at zero, and the derived IPC / miss-rate columns follow.
func TestHWCAccounting(t *testing.T) {
	p := NewSpanProfiler(0)
	p.hwEvents = []string{"cycles", "instructions", "cache-references", "cache-misses", "branch-misses"}

	agg := p.account(span.LayerCore, "power", 0, 0)
	delta := [hwc.MaxEvents]float64{1000, 2000, 100, 25, 5}
	child := [hwc.MaxEvents]float64{400, 500, 20, 5, 0}
	p.accountHW(agg, &delta, &child)

	st := spanStat(t, p, span.LayerCore, "power")
	if st.HWCSamples != 1 {
		t.Fatalf("HWCSamples = %d", st.HWCSamples)
	}
	cyc, ok := st.Counter("cycles")
	if !ok || cyc.Total != 1000 || cyc.Self != 600 {
		t.Errorf("cycles = %+v ok=%v", cyc, ok)
	}
	// IPC and miss rate use self values: 1500/600 and 20/80.
	if got := st.IPC(); math.Abs(got-1500.0/600.0) > 1e-12 {
		t.Errorf("IPC = %g", got)
	}
	if got := st.CacheMissRate(); math.Abs(got-20.0/80.0) > 1e-12 {
		t.Errorf("miss rate = %g", got)
	}
	if got := st.MissesPerOp(); got != 20 {
		t.Errorf("misses/op = %g", got)
	}
	if got := st.CyclesPerOp(); got != 600 {
		t.Errorf("cycles/op = %g", got)
	}

	// A child that claimed more (multiplex-scaled) than the parent's
	// window clamps self at zero instead of going negative.
	agg2 := p.account(span.LayerCore, "shift", 0, 0)
	over := [hwc.MaxEvents]float64{100, 100, 0, 0, 0}
	huge := [hwc.MaxEvents]float64{500, 500, 0, 0, 0}
	p.accountHW(agg2, &over, &huge)
	if st2 := spanStat(t, p, span.LayerCore, "shift"); st2.HWC[0].Self != 0 || st2.HWC[0].Total != 100 {
		t.Errorf("clamped stat = %+v", st2.HWC[0])
	}
}

// TestHWCSpanPathBothWorlds runs real spans through a profiler holding a
// freshly opened session. On a PMU-less or denied host every span's
// counters are dropped (and the row ledger stays aligned); on a
// permissive host they are attributed with plausible magnitudes. Both
// sides of the degradation matrix stay covered wherever the test runs.
func TestHWCSpanPathBothWorlds(t *testing.T) {
	s := hwc.Open("")
	defer s.Close()
	p := NewSpanProfiler(0)
	if s.Reason() == "" {
		p.AttachHWC(s)
		if !p.HWCActive() {
			t.Fatal("live session did not attach")
		}
	} else {
		t.Logf("degraded host: %s", s.Reason())
		// Force the hot path anyway: a non-nil degraded session makes
		// every ReadSelf fail, which must count as dropped, not crash.
		p.hw = s
		p.hwEvents = nil
	}
	subscribe(func(f *fanout) { f.prof = p })
	outer := span.Begin(span.LayerCore, "power")
	inner := span.Begin(span.LayerMutation, "apply")
	for i := 0; i < 1000; i++ {
		_ = i * i
	}
	span.End(inner, 1, 0)
	span.End(outer, 2, 0)
	p.Stop()

	total := p.HWCSamples() + p.HWCDropped()
	if total != 2 {
		t.Fatalf("samples+dropped = %d, want 2", total)
	}
	if len(p.hwrows) != len(p.rows) {
		t.Fatalf("hwrows/rows misaligned: %d vs %d", len(p.hwrows), len(p.rows))
	}
	if s.Reason() != "" && p.HWCDropped() != 2 {
		t.Errorf("degraded path attributed spans: dropped = %d", p.HWCDropped())
	}
	if s.Reason() == "" && p.HWCSamples() > 0 {
		st := spanStat(t, p, span.LayerCore, "power")
		if st.HWCSamples > 0 {
			if c, _ := st.Counter("instructions"); c.Total <= 0 {
				t.Errorf("live instructions total = %g", c.Total)
			}
		}
	}
}

// TestHWCWriteTableColumns checks the table grows the counter columns
// exactly when a session is attached: ipc/miss% present with data, "-"
// cells for sites without samples, and no columns at all without hwc.
func TestHWCWriteTableColumns(t *testing.T) {
	p := NewSpanProfiler(0)
	p.hw = hwc.Open("definitely-degraded-but-non-nil-for-rendering")
	p.hwEvents = []string{"cycles", "instructions", "cache-references", "cache-misses", "branch-misses"}
	agg := p.account(span.LayerCore, "matvec", 0, 0)
	delta := [hwc.MaxEvents]float64{1e6, 2e6, 1e4, 1e3, 10}
	var none [hwc.MaxEvents]float64
	p.accountHW(agg, &delta, &none)
	p.account(span.LayerCore, "residual", 0, 0) // no counter samples

	var buf bytes.Buffer
	if err := p.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ipc", "miss%", "miss/op", "cyc/op", "2.00", "hwc: 0 spans attributed"} {
		if !strings.Contains(out, want) {
			t.Errorf("hwc table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-") {
		t.Errorf("sampleless site has no dash cells:\n%s", out)
	}

	var plain bytes.Buffer
	p2 := NewSpanProfiler(0)
	p2.account(span.LayerCore, "matvec", 0, 0)
	if err := p2.WriteTable(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "ipc") {
		t.Errorf("plain table grew hwc columns:\n%s", plain.String())
	}
}

// TestHWCPrometheusFamilies checks the qs_hwc_* exposition renders from a
// profiler with synthetic counter aggregates.
func TestHWCPrometheusFamilies(t *testing.T) {
	p := NewSpanProfiler(0)
	p.hw = hwc.Open("x-degraded-x")
	p.hwEvents = []string{"cycles", "instructions", "cache-references", "cache-misses", "branch-misses"}
	agg := p.account(span.LayerCore, "matvec", 0, 0)
	delta := [hwc.MaxEvents]float64{100, 250, 10, 2, 1}
	var none [hwc.MaxEvents]float64
	p.accountHW(agg, &delta, &none)

	var buf bytes.Buffer
	if err := p.WriteHWCPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"qs_hwc_samples_total",
		"qs_hwc_dropped_total",
		`qs_hwc_counter_self_total{layer="core",span="matvec",event="instructions"} 250`,
		`qs_hwc_phase_ipc{layer="core",span="matvec"} 2.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Inactive profiler writes nothing.
	var empty bytes.Buffer
	if err := NewSpanProfiler(0).WriteHWCPrometheus(&empty); err != nil || empty.Len() != 0 {
		t.Errorf("inactive exposition: err=%v len=%d", err, empty.Len())
	}
}

// TestDebugSpansEndpoint smoke-tests /debug/spans in both formats,
// with and without an installed profiler.
func TestDebugSpansEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// No profiler installed: active=false, not an error.
	if p := InstalledProfiler(); p != nil {
		p.Stop()
	}
	code, body := get("/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans status = %d", code)
	}
	var idle spansPayload
	if err := json.Unmarshal([]byte(body), &idle); err != nil || idle.Active {
		t.Fatalf("idle payload = %q err=%v", body, err)
	}

	p := StartSpanProfiler(0)
	defer p.Stop()
	span.End(span.Begin(span.LayerCore, "matvec"), 7, 0)

	code, body = get("/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans status = %d", code)
	}
	var live spansPayload
	if err := json.Unmarshal([]byte(body), &live); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !live.Active || len(live.Spans) != 1 || live.Spans[0].Name != "matvec" || live.Spans[0].Count != 1 {
		t.Errorf("live payload = %+v", live)
	}

	code, body = get("/debug/spans?format=text")
	if code != http.StatusOK || !strings.Contains(body, "matvec") || !strings.Contains(body, "layer") {
		t.Errorf("text format: status=%d body:\n%s", code, body)
	}
}
