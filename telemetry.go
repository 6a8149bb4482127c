package quasispecies

import (
	"io"

	"repro/internal/obs"
)

// Continuous resource telemetry, behind the -telemetry flag of every CLI.
// StartTelemetry launches a background sampler that polls — once per
// period — process memory (RSS, peak RSS, transparent-huge-page adoption
// from procfs), NUMA page placement, Go runtime state (heap, goroutines,
// GC pauses), the solver's always-on device counters (pool queue depth and
// steal totals) and batch scheduler progress (inflight, done, points/sec),
// retaining each signal in a fixed-capacity ring. The rings feed /debug/telemetry on the debug
// mux (JSON, or ?format=text for a sparkline table) and flight-recorder
// bundles (telemetry.jsonl).
//
// The sampler follows the solver's nil-by-default discipline: nothing is
// polled until StartTelemetry runs, and even then every read is procfs or
// an atomic the solver already maintains — solve paths stay allocation-
// free and bit-identical with telemetry on or off. On non-Linux hosts or
// under restricted procfs the memory/NUMA series degrade to unavailable
// with a single notice line; runtime and solver series work everywhere.

// Telemetry is the running resource sampler. One per process: a second
// StartTelemetry returns the same instance.
type Telemetry struct{ s *obs.Sampler }

// StartTelemetry starts (or returns the already-running) process-wide
// resource sampler: one point per second per series, the last 600 (ten
// minutes) retained. It enables the solver metrics first, so the qs_*
// resource gauges the sampler refreshes appear on /metrics too.
func StartTelemetry() *Telemetry {
	return &Telemetry{s: obs.StartResourceSampler()}
}

// Notice returns the single degradation line to print when part of the
// telemetry is unavailable on this host, or "" when everything works.
// Call it after the first sampling tick (any time ≥ the period after
// StartTelemetry, or just before printing results).
func (t *Telemetry) Notice() string { return t.s.Notice() }

// WriteJSONL exports every retained series point as JSON lines — the
// flight-bundle and CI artifact format.
func (t *Telemetry) WriteJSONL(w io.Writer) error { return t.s.WriteJSONL(w) }

// Stop halts the sampling goroutine. The retained series stay readable
// (and /debug/telemetry keeps serving them, just stale).
func (t *Telemetry) Stop() { t.s.Stop() }
