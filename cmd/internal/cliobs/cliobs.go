// Package cliobs is the observability flag set the solver CLIs share —
// -debug-addr, -spans, -span-out, -flight and -flight-dir — with the code
// that starts what the flags ask for and, via Run.Finish, reports on it
// when the run ends. Tool-specific checks (such as qs-threshold's
// "requires -full") stay in the tools.
package cliobs

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	quasispecies "repro"
	"repro/internal/obs"
)

// Flags are the parsed observability flags.
type Flags struct {
	DebugAddr string
	Spans     bool
	SpanOut   string
	Flight    bool
	FlightDir string
}

// Help overrides the help text of the flags whose wording depends on the
// tool; an empty field keeps the default.
type Help struct {
	Spans, SpanOut, Flight string
}

// Register defines the observability flags on the default flag set; call
// it before flag.Parse.
func Register(h Help) *Flags {
	f := &Flags{}
	flag.StringVar(&f.DebugAddr, "debug-addr", "", "serve /metrics, /debug/spans, /debug/flight, /debug/vars, /debug/pprof/ and /healthz on this address (e.g. 127.0.0.1:9190)")
	flag.BoolVar(&f.Spans, "spans", false, cmp.Or(h.Spans, "profile the run with hierarchical spans and print the per-phase time table to stderr"))
	flag.StringVar(&f.SpanOut, "span-out", "", cmp.Or(h.SpanOut, "write the span timeline as Chrome trace-event JSON to this file (implies -spans)"))
	flag.BoolVar(&f.Flight, "flight", false, cmp.Or(h.Flight, "flight-record the run: manifest, black-box rings, a diagnostic bundle when the solver fails"))
	flag.StringVar(&f.FlightDir, "flight-dir", "flight-bundles", "directory receiving flight diagnostic bundles")
	return f
}

// Profiling reports whether a span profile was asked for: -spans, or
// -span-out, which implies it.
func (f *Flags) Profiling() bool { return f.Spans || f.SpanOut != "" }

// Run is the observability of one tool run.
type Run struct {
	tool  string
	flags *Flags
	srv   *obs.DebugServer
	fl    *quasispecies.Flight
	prof  *quasispecies.SpanProfile
}

// Start starts the debug server (-debug-addr). tool prefixes every line
// the run prints to stderr and names the tool in flight manifests.
func (f *Flags) Start(tool string) (*Run, error) {
	r := &Run{tool: tool, flags: f}
	if f.DebugAddr != "" {
		srv, err := obs.StartDebugServer(f.DebugAddr)
		if err != nil {
			return nil, err
		}
		r.srv = srv
		r.logf("debug server on http://%s (/metrics, /debug/spans, /debug/flight, /debug/vars, /debug/pprof/, /healthz)", srv.Addr())
	}
	return r, nil
}

// StartFlight starts a flight recording of the run described by opts when
// -flight is set (the tool name and bundle directory come from the run)
// and returns it; it returns nil without -flight.
func (r *Run) StartFlight(opts quasispecies.FlightOptions) *quasispecies.Flight {
	if !r.flags.Flight {
		return nil
	}
	opts.Dir, opts.Tool = r.flags.FlightDir, r.tool
	r.fl = quasispecies.StartFlight(opts)
	r.logf("flight recording run %s (bundles under %s)", r.fl.RunID(), r.flags.FlightDir)
	return r.fl
}

// StartSpans starts the span profile when one was asked for.
func (r *Run) StartSpans() {
	if !r.flags.Profiling() {
		return
	}
	r.prof = quasispecies.StartSpanProfile(0)
}

// Finish ends the run's observability. It stops the span profile, prints
// its per-phase table and writes the -span-out Chrome trace; dumps a
// flight bundle when err is non-nil; and stops the flight recorder and the
// debug server. The profile is reported even when the run failed — where
// the time went is most interesting then.
func (r *Run) Finish(err error) {
	if r.prof != nil {
		r.prof.Stop()
		r.logf("span profile (per-phase times):")
		if werr := r.prof.WriteTable(os.Stderr); werr != nil {
			r.logf("%v", werr)
		}
		if out := r.flags.SpanOut; out != "" {
			if werr := r.prof.WriteChromeTraceFile(out); werr != nil {
				r.logf("%v", werr)
			} else {
				r.logf("span timeline written to %s (open in ui.perfetto.dev)", out)
			}
		}
	}
	if r.fl != nil {
		if err != nil {
			if dir, ok := r.fl.DumpOnError(err); ok {
				r.logf("diagnostic bundle dumped to %s", dir)
			}
		}
		r.fl.Stop()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

func (r *Run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, r.tool+": "+format+"\n", args...)
}
