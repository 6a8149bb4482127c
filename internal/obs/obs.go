// Package obs is the solver's zero-dependency observability layer: the
// span profiler, the convergence-trace recorder, the flight recorder, run
// manifests, and an HTTP debug server bundling /debug/spans,
// /debug/flight, net/http/pprof and /healthz.
//
// One event per question. Where the time goes: the solver packages
// (mutation, device, batch, core) report spans only to the internal/span
// hook, and StartSpanProfiler installs its SpanProfiler there as the one
// recorder; the flight recorder reads the profiler's span stream. How a
// solve converged: each residual check goes to the solve's own
// PowerOptions.Observer (a TraceRecorder), and nowhere else.
//
// Design contract (enforced by tests in internal/core, internal/mutation
// and internal/span): with no profile recording the solver hot paths pay
// exactly one atomic pointer load per instrumented site — no allocations,
// no timing calls, bit-identical numerics.
//
// The solver packages never import obs. It reaches into them only for
// their exported span names, the error types a flight bundles, the kernel
// tier a manifest names, and the batch panic hook the flight recorder
// installs.
package obs
