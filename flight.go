package quasispecies

import (
	"flag"
	"os"
	"time"

	"repro/internal/obs"
)

// Flight recording: the black box of a solver run, behind the -flight
// flag of every CLI. StartFlight stamps a run manifest (run ID, build
// revision, flag set, GOMAXPROCS, NUMA topology, AVX2 availability,
// p-grid), threads the run ID through span profiles, trace rows and
// /metrics, retains recent history in bounded rings, and starts the
// numerical-health watchdog. On stalls, NaN residuals, solver errors,
// worker panics, or SIGUSR1/SIGQUIT, a diagnostic
// bundle — manifest, ring dumps, goroutine dump, profile table, Chrome
// trace — lands as a tar-friendly directory under FlightOptions.Dir.
//
// With no flight active the solver's hot paths pay one atomic pointer
// load at the existing hook points and allocate nothing; numerics are
// bit-identical either way.

// FlightOptions configures StartFlight. The zero value works: bundles
// under "flight-bundles", watchdog defaults.
type FlightOptions struct {
	// Dir receives diagnostic bundles ("" selects "flight-bundles").
	Dir string
	// Tool and Args identify the invoking command in the manifest. Flags
	// overrides the recorded flag set; nil collects the resolved values of
	// the standard flag.CommandLine when it has been parsed.
	Tool  string
	Args  []string
	Flags map[string]string
	// Workload parameters recorded in the manifest (zero values omitted).
	Nu      int
	Method  string
	Workers int
	PGrid   []float64
	// Watchdog tuning; zero values select the obs defaults (30s stall
	// wall, 5000 stalled residual checks, 500ms scan interval), negative
	// values disable the respective criterion (StallWall, StallChecks) or
	// the watchdog goroutine (Interval).
	StallWall        time.Duration
	StallChecks      int
	WatchdogInterval time.Duration
	// TraceEvery thins Step rows entering the trace ring (0 selects 16).
	TraceEvery int
	// DisableSignals skips the SIGUSR1/SIGQUIT bundle-dump handler.
	DisableSignals bool
}

// Flight is an active flight recording. Create with StartFlight; Stop it
// when the run ends (dumped bundles and rings stay readable).
type Flight struct {
	f *obs.FlightRecorder
	// prof is the span profiler StartFlight installed because none was
	// recording; nil when the caller's own profile (e.g. -spans) was
	// already live.
	prof *SpanProfile
}

// StartFlight begins a flight recording: manifest, rings, watchdog,
// signal handler, batch panic hook. When no span profile is recording it
// installs a bounded one so the span ring has a feed; a profile the
// caller started earlier (e.g. -spans) is reused and stamped with the
// run ID instead.
func StartFlight(opts FlightOptions) *Flight {
	if opts.Flags == nil && flag.Parsed() {
		opts.Flags = make(map[string]string)
		flag.VisitAll(func(f *flag.Flag) { opts.Flags[f.Name] = f.Value.String() })
	}
	if opts.Tool != "" && opts.Args == nil && len(os.Args) > 1 {
		opts.Args = os.Args[1:]
	}
	manifest := obs.NewManifest(obs.ManifestWorkload{
		Tool: opts.Tool, Args: opts.Args, Flags: opts.Flags,
		Nu: opts.Nu, Method: opts.Method, Workers: opts.Workers, PGrid: opts.PGrid,
	})
	fl := &Flight{}
	if obs.InstalledProfiler() == nil {
		// A modest event bound: the flight needs a span feed for its ring
		// and a profile table for bundles, not the full ~1M-event
		// timeline a -spans run keeps.
		fl.prof = StartSpanProfile(1 << 16)
	}
	fl.f = obs.StartFlight(manifest, obs.FlightConfig{
		Dir:        opts.Dir,
		TraceEvery: opts.TraceEvery,
		Watchdog: obs.WatchdogConfig{
			Interval:    opts.WatchdogInterval,
			StallWall:   opts.StallWall,
			StallChecks: opts.StallChecks,
		},
		DisableSignals: opts.DisableSignals,
	})
	return fl
}

// RunID returns the run identifier stamped in the manifest.
func (fl *Flight) RunID() string { return fl.f.RunID() }

// Observer returns a per-solve convergence observer for the labelled
// solve: it feeds the flight's trace ring and registers the solve with
// the watchdog. Plug it into WithObserver or tee it next to a trace
// recorder with TeeSolveObservers.
func (fl *Flight) Observer(label string) SolveObserver { return fl.f.Observer(label) }

// NoteDecision retains one method/escalation decision row in the flight's
// decision ring (kind e.g. "point", label e.g. "p=0.0312").
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

// Stop ends the recording, releasing the watchdog, signal handler, and
// panic hook — and the span profiler, when StartFlight installed one.
func (fl *Flight) Stop() {
	fl.f.Stop()
	if fl.prof != nil {
		fl.prof.Stop()
	}
}

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
// it (the optional extension obs.TraceRecorder and flight recorders
// implement).
func (t *teeObserver) Method(kind string) {
	if m, ok := t.a.(interface{ Method(string) }); ok {
		m.Method(kind)
	}
	if m, ok := t.b.(interface{ Method(string) }); ok {
		m.Method(kind)
	}
}
