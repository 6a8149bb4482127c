package quasispecies

import "repro/internal/obs"

// Flight recording: the black box of a solver run, behind the -flight
// flag of every CLI. StartFlight stamps a run manifest (run ID, build
// revision, command line and flag set, host shape and kernel tier,
// workload), threads the run ID through span profiles, trace rows,
// /healthz and /debug/flight, and retains recent history in bounded rings. The flight
// detects nothing itself: on what the solver decided — a
// ConvergenceError (stagnation, exhausted budget, breakdown) or a
// GapUnresolvedError passed to DumpOnError — and on worker panics,
// SIGUSR1/SIGQUIT or Dump, a diagnostic bundle — manifest, ring dumps,
// goroutine dump, profile table, Chrome trace — lands as
// a tar-friendly directory under FlightOptions.Dir. Ring sizes, thinning
// and the bundle cap are fixed (DESIGN §5.8).
//
// With no flight active the solver's hot paths pay one atomic pointer
// load at the existing hook points and allocate nothing; numerics are
// bit-identical either way.

// FlightOptions describes the run StartFlight records.
type FlightOptions struct {
	// Dir receives diagnostic bundles ("" is the working directory).
	Dir string
	// Tool names the invoking command in the manifest; its arguments and
	// flag set are read from os.Args and flag.CommandLine.
	Tool string
	// Workload parameters recorded in the manifest (zero values omitted).
	Nu      int
	Method  string
	Workers int
	PGrid   []float64
}

// Flight is an active flight recording. Create with StartFlight; Stop it
// when the run ends (dumped bundles and rings stay readable).
type Flight struct{ f *obs.FlightRecorder }

// StartFlight begins a flight recording: manifest, rings, signal
// handler, batch panic hook, and a bounded span profile when none is
// recording (a profile the caller started earlier, e.g. -spans, is
// stamped with the run ID instead).
func StartFlight(opts FlightOptions) *Flight {
	m := obs.NewManifest(obs.ManifestWorkload{
		Tool: opts.Tool, Nu: opts.Nu, Method: opts.Method, Workers: opts.Workers, PGrid: opts.PGrid,
	})
	return &Flight{f: obs.StartFlight(m, opts.Dir)}
}

// RunID returns the run identifier stamped in the manifest.
func (fl *Flight) RunID() string { return fl.f.RunID() }

// Observer returns a convergence observer for the labelled solve: it
// feeds the flight's trace ring, thinned like a -trace file, whose start
// and terminal rows carry the solve's method and outcome. Plug it into
// WithObserver or tee it next to a trace recorder with TeeSolveObservers.
func (fl *Flight) Observer(label string) SolveObserver { return fl.f.Observer(label) }

// NoteDecision retains one decision row in the flight's decision ring
// (kind e.g. "point", label e.g. "p=0.0312").
func (fl *Flight) NoteDecision(kind, label, detail string, iter int) {
	fl.f.NoteDecision(kind, label, detail, iter)
}

// DumpOnError dumps a diagnostic bundle when err is (or wraps) a
// ConvergenceError or GapUnresolvedError, writing the error's lossless
// JSON form into the bundle. Returns the bundle directory and whether a
// bundle was dumped.
func (fl *Flight) DumpOnError(err error) (string, bool) { return fl.f.DumpOnError(err) }

// Dump writes a diagnostic bundle now (reason "manual") and returns its
// directory.
func (fl *Flight) Dump() (string, error) {
	return fl.f.DumpBundle("manual", nil)
}

// Bundles returns the directories of the bundles dumped so far.
func (fl *Flight) Bundles() []string { return fl.f.Bundles() }

// Stop ends the recording, releasing the signal handler and panic hook —
// and the span profiler, when StartFlight installed one.
func (fl *Flight) Stop() { fl.f.Stop() }

// TeeSolveObservers combines solve observers: every Step/Event (and
// method report) goes to each non-nil observer. Returns nil when both are
// nil, and the single observer unchanged when only one is non-nil, so
// callers can tee unconditionally.
func TeeSolveObservers(a, b SolveObserver) SolveObserver {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &teeObserver{a: a, b: b}
}

type teeObserver struct{ a, b SolveObserver }

func (t *teeObserver) Step(iter int, lambda, residual float64) {
	t.a.Step(iter, lambda, residual)
	t.b.Step(iter, lambda, residual)
}

func (t *teeObserver) Event(event string, iter int, lambda, residual float64) {
	t.a.Event(event, iter, lambda, residual)
	t.b.Event(event, iter, lambda, residual)
}

// Method forwards the solver's gear report to the observers that accept
// it (the optional extension obs.TraceRecorder implements, a flight's
// observer among them).
func (t *teeObserver) Method(kind string) {
	if m, ok := t.a.(interface{ Method(string) }); ok {
		m.Method(kind)
	}
	if m, ok := t.b.(interface{ Method(string) }); ok {
		m.Method(kind)
	}
}
