package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// /debug/telemetry: the HTTP view of the resource sampler. JSON by default
// (full series with windowed aggregates — the qs-top wire format), an
// aligned sparkline table with ?format=text for humans with curl. With no
// sampler running it reports active=false rather than an error, so smoke
// probes can hit it unconditionally.

// telemetryPayload is the /debug/telemetry JSON shape.
type telemetryPayload struct {
	Active        bool            `json:"active"`
	Notice        string          `json:"notice,omitempty"`
	StartedUnixMS int64           `json:"started_unix_ms,omitempty"`
	PeriodSeconds float64         `json:"period_seconds,omitempty"`
	State         *SamplerState   `json:"state,omitempty"`
	Series        []seriesPayload `json:"series"`
}

type seriesPayload struct {
	Name   string       `json:"name"`
	Kind   string       `json:"kind"`
	Unit   string       `json:"unit,omitempty"`
	Window *WindowStats `json:"window,omitempty"`
	Points []Point      `json:"points,omitempty"`
}

// telemetryInactiveNotice is the single line tools print when telemetry was
// never started.
const telemetryInactiveNotice = "resource sampler not running (start with -telemetry)"

// serveTelemetry handles /debug/telemetry. Query parameters: ?format=text
// for the sparkline table, ?points=N to bound the exported points per
// series (default 120, 0 for none — aggregates only), ?window=30s to
// restrict the aggregate window (default: everything retained).
func serveTelemetry(w http.ResponseWriter, r *http.Request) {
	s := ActiveSampler()
	text := r.URL.Query().Get("format") == "text"

	if s == nil {
		if text {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, telemetryInactiveNotice)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(telemetryPayload{Active: false, Notice: telemetryInactiveNotice, Series: []seriesPayload{}})
		return
	}

	maxPoints := 120
	if v := r.URL.Query().Get("points"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			maxPoints = n
		}
	}
	var cutoff time.Time
	if v := r.URL.Query().Get("window"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			cutoff = time.Now().Add(-d)
		}
	}

	if text {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = writeTelemetryTable(w, s, cutoff)
		return
	}

	payload := telemetryPayload{
		Active:        true,
		Notice:        s.Notice(),
		StartedUnixMS: s.Started().UnixMilli(),
		PeriodSeconds: s.Period().Seconds(),
		State:         s.State(),
		Series:        []seriesPayload{},
	}
	for _, ts := range s.Series() {
		sp := seriesPayload{Name: ts.Name(), Kind: ts.Kind().String(), Unit: ts.Unit()}
		if st, ok := ts.Window(cutoff); ok {
			sp.Window = &st
		}
		if maxPoints > 0 {
			pts := ts.Snapshot()
			if len(pts) > maxPoints {
				pts = pts[len(pts)-maxPoints:]
			}
			sp.Points = pts
		}
		payload.Series = append(payload.Series, sp)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(payload)
}

// writeTelemetryTable renders the sampler as an aligned sparkline table —
// shared by ?format=text and (via the JSON payload) mirrored in qs-top.
func writeTelemetryTable(w interface{ Write([]byte) (int, error) }, s *Sampler, cutoff time.Time) error {
	st := s.State()
	fmt.Fprintf(w, "resource telemetry — period %s, up %s\n",
		s.Period(), time.Since(s.Started()).Round(time.Second))
	if n := s.Notice(); n != "" {
		fmt.Fprintf(w, "notice: %s\n", n)
	}
	if st != nil && st.Mem.Available {
		fmt.Fprintf(w, "rss %s (peak %s), thp %s (%.0f%%)\n",
			FormatBytes(st.Mem.RSSBytes), FormatBytes(st.Mem.PeakRSSBytes),
			FormatBytes(st.Mem.AnonHugeBytes), 100*st.Mem.HugeRatio)
	}
	fmt.Fprintf(w, "%-28s %12s %12s %12s %10s  %s\n",
		"SERIES", "LAST", "MIN", "MAX", "RATE/S", "TREND")
	for _, ts := range s.Series() {
		stw, ok := ts.Window(cutoff)
		if !ok {
			continue
		}
		pts := ts.Snapshot()
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p.V
		}
		rate := "-"
		if ts.Kind() == SeriesCumulative {
			rate = formatUnitValue("1/s", stw.RatePerSec)
		}
		fmt.Fprintf(w, "%-28s %12s %12s %12s %10s  %s\n",
			ts.Name(),
			formatUnitValue(ts.Unit(), stw.Last),
			formatUnitValue(ts.Unit(), stw.Min),
			formatUnitValue(ts.Unit(), stw.Max),
			rate,
			Sparkline(vals, 24))
	}
	return nil
}

// FormatBytes renders a byte count with a binary-prefix unit, the human
// format shared by the telemetry table and qs-top.
func FormatBytes(b int64) string {
	const kib = 1024.0
	v := float64(b)
	switch {
	case v >= kib*kib*kib:
		return fmt.Sprintf("%.2fGiB", v/(kib*kib*kib))
	case v >= kib*kib:
		return fmt.Sprintf("%.1fMiB", v/(kib*kib))
	case v >= kib:
		return fmt.Sprintf("%.0fKiB", v/kib)
	}
	return fmt.Sprintf("%dB", b)
}

// formatUnitValue renders v according to a series' display unit.
func formatUnitValue(unit string, v float64) string {
	switch unit {
	case "bytes":
		return FormatBytes(int64(v))
	case "s":
		return fmt.Sprintf("%.4gs", v)
	default:
		if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
			return strconv.FormatInt(int64(v), 10)
		}
		return fmt.Sprintf("%.4g", v)
	}
}
