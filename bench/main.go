// Command bench is the repository benchmark: four seeded closed-loop
// workloads timed through the root quasispecies API with every output
// checked, and a separate traced run that times each solver layer directly.
// Run it from the repository root:
//
//	bash bench/run.sh --workload solve-nu20 --seed 1 --seconds 30 --trace 0
//
// or from this directory with go run . [-workload NAME] [-seed N] [-trace 1].
// The last line of standard output is the run's JSON result. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric describes one reported metric. Bound, for end-to-end metrics, is the
// share of the parent's median by which the metric may get worse before a
// change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of the untraced run, reported for every workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "matvecs_per_unit", Unit: "count", Better: "lower", Bound: 0.04},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run, reported for every workload.
var perLayer = []metric{
	{Name: "mutation.apply_s", Unit: "s", Better: "lower"},
	{Name: "mutation.apply_dev_s", Unit: "s", Better: "lower"},
	{Name: "mutation.apply_dev_speedup", Unit: "ratio", Better: "higher"},
	{Name: "mutation.shift_invert_s", Unit: "s", Better: "lower"},
	{Name: "mutation.apply_general_s", Unit: "s", Better: "lower"},
	{Name: "mutation.gflops_computed", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mutation.gbps_min_traffic", Unit: "GB/s", Better: "higher"},
	{Name: "mutation.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "device.blas1_iter_s", Unit: "s", Better: "lower"},
	{Name: "device.blas1_iter_serial_s", Unit: "s", Better: "lower"},
	{Name: "device.launch_s", Unit: "s", Better: "lower"},
	{Name: "core.op_apply_s", Unit: "s", Better: "lower"},
	{Name: "core.op_fitness_share", Unit: "ratio", Better: "lower"},
	{Name: "core.matvec_share", Unit: "ratio", Better: "higher"},
	{Name: "core.iters_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.probe_s", Unit: "s", Better: "lower"},
	{Name: "core.points_power", Unit: "count", Better: "higher"},
	{Name: "core.points_chebyshev", Unit: "count", Better: "lower"},
	{Name: "core.points_shiftinvert", Unit: "count", Better: "lower"},
	{Name: "core.escalations", Unit: "count", Better: "lower"},
	{Name: "core.max_point_matvecs", Unit: "count", Better: "lower"},
	{Name: "batch.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "harness.point_s", Unit: "s", Better: "lower"},
	{Name: "harness.point_setup_s", Unit: "s", Better: "lower"},
	{Name: "errorclass.solve_s", Unit: "s", Better: "lower"},
	{Name: "errorclass.expand_s", Unit: "s", Better: "lower"},
	{Name: "kron.solve_s", Unit: "s", Better: "lower"},
	{Name: "landscape.materialize_s", Unit: "s", Better: "lower"},
	{Name: "quasispecies.post_s", Unit: "s", Better: "lower"},
	{Name: "quasispecies.route_share.reduced", Unit: "ratio", Better: "higher"},
	{Name: "quasispecies.route_share.fmmp", Unit: "ratio", Better: "lower"},
	{Name: "quasispecies.route_share.kron", Unit: "ratio", Better: "higher"},
	{Name: "quasispecies.route_time_share.reduced", Unit: "ratio", Better: "lower"},
	{Name: "quasispecies.route_time_share.fmmp", Unit: "ratio", Better: "lower"},
	{Name: "quasispecies.route_time_share.kron", Unit: "ratio", Better: "lower"},
	{Name: "obs.span_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// setupRounds is how often a run sets its workload up; setup_s is the median.
const setupRounds = 5

// defaultSeconds is the closed loop's default length, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 30

type config struct {
	seed    uint64
	seconds float64 // how long the closed loop runs, at least one cycle
	trace   bool
	small   bool   // reduced sizes, for the smoke test
	spanDir string // where the traced run writes its span JSONL
}

// report is the outcome of one workload run.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string // human-readable lines printed before the result
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+" (default: all, one after another)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds the closed loop of each workload runs (it always covers its input cycle once)")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and the span JSONL")
	cmp := fs.String("compare", "", "BASE,CHANGE: compare two files of result lines, paired in order, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *cmp != "" {
		return runCompare(*cmp, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{*w}
	}
	status := 0
	for i := range selected {
		cfg := config{
			seed: *seed, seconds: *seconds, trace: *trace == 1,
			spanDir: filepath.Join(".bench_build", "spans"),
		}
		rep, err := runWorkload(cfg, &selected[i])
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", selected[i].name, err)
			return 1
		}
		if err := printReport(stdout, cfg, &selected[i], rep); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", selected[i].name, err)
			return 1
		}
		if rep.failed > 0 {
			status = 1
		}
	}
	return status
}

// sample is one measured unit of the closed loop.
type sample struct {
	secs   float64
	rssMiB float64
	route  string
	index  int // position in the cycle
	traced bool
}

// runWorkload sets the workload up, runs its closed loop and, in the traced
// run, its per-layer probes.
func runWorkload(cfg config, w *workload) (*report, error) {
	if _, err := peakRSSMiB(); err != nil {
		return nil, fmt.Errorf("peak RSS unavailable: %w", err)
	}
	rep := &report{values: map[string]float64{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: generate the inputs and run the warm-up unit, so pools,
	// first-touch faults and lazily built state are in place before timing.
	var pl plan
	setup := make([]float64, 0, setupRounds)
	root := scope{tr: tr, unit: -1}
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		sc, end := root.child("setup")
		t0 := time.Now()
		var err error
		pl, err = w.build(newRand(cfg.seed, w.name), cfg.small)
		if err != nil {
			return nil, fmt.Errorf("generate inputs: %w", err)
		}
		o, err := pl.warm.run(sc)
		setup = append(setup, time.Since(t0).Seconds())
		end()
		rep.record(root, o, err)
	}

	samples, last, err := rep.loop(cfg, pl, tr)
	if err != nil {
		return nil, err
	}
	lat := unitBest(samples, len(pl.cycle), func(s sample) float64 { return s.secs })
	rss := unitBest(samples, len(pl.cycle), func(s sample) float64 { return s.rssMiB })
	tail := "none"
	if p, ok := tailPercentile(len(lat)); ok {
		tail = fmt.Sprintf("p%g", p)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("units n=%d (cycle %d, %d passes; a unit's latency is its fastest pass), closed loop with 1 client, %d solver workers",
			len(samples), len(pl.cycle), len(samples)/len(pl.cycle), solverWorkers),
		fmt.Sprintf("tail rule (highest percentile with >=10 units beyond it) at n=%d: %s; latency_p90_s is always p90", len(lat), tail))

	if !cfg.trace {
		rep.values["setup_s"] = median(setup)
		rep.values["latency_p50_s"] = hdQuantile(lat, 0.5)
		rep.values["latency_p90_s"] = hdQuantile(lat, 0.9)
		rep.values["matvecs_per_unit"] = last.matvecsPerUnit
		rep.values["peak_rss_mb"] = slices.Max(rss)
		return rep, nil
	}

	rep.values["trace.overhead_frac"] = traceOverhead(samples, len(pl.cycle))
	for k, v := range routeShares(samples) {
		rep.values[k] = v
	}
	probes, err := runProbes(pl, last.sweep, root, cfg.small)
	if err != nil {
		return nil, fmt.Errorf("per-layer probes: %w", err)
	}
	for k, v := range probes.values {
		rep.values[k] = v
	}
	for _, err := range probes.checks {
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notes = append(rep.notes, "FAILED serial rerun: "+err.Error())
		}
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	return rep, nil
}

// loopResult is what the closed loop leaves besides its samples.
type loopResult struct {
	// matvecsPerUnit is the mean matvec count over the cycle's units, from
	// their first pass; repeats must reproduce it exactly.
	matvecsPerUnit float64
	sweep          *sweepRun // the last sweep unit's run, if the workload sweeps
}

// loop runs the closed loop: one client, each unit starting when the previous
// one finished, in whole passes over the cycle until the time is up, so every
// unit of the cycle weighs the same in every run. Before each unit, outside
// its timing, the heap is collected and the peak-RSS mark reset, so a unit's
// latency and peak RSS are its own rather than a share of the garbage earlier
// units left; GC work the unit's own allocations cause is still timed. In the
// traced run passes alternate between recording spans and not, and there are
// at least two, so every unit's traced and untraced latencies in one process
// give the tracing overhead.
func (rep *report) loop(cfg config, pl plan, tr *tracer) ([]sample, loopResult, error) {
	resettable := resetPeakRSS() == nil
	if !resettable {
		rep.notes = append(rep.notes, "peak RSS: /proc/self/clear_refs is not writable, so VmHWM is process-wide")
	}
	first := make([]int, len(pl.cycle))
	var samples []sample
	var res loopResult
	steal0, total0, statErr := cpuTimes()
	minPasses := 1
	if tr != nil {
		minPasses = 2
	}
	// A pass starts only if, as long as the last one, it ends within the
	// run's time: a workload whose pass takes most of the run (critical-nu17)
	// then runs one pass, not two.
	start := time.Now()
	var lastPass time.Duration
	for pass := 0; pass < minPasses || time.Since(start)+lastPass <= time.Duration(cfg.seconds*float64(time.Second)); pass++ {
		passStart := time.Now()
		for j, u := range pl.cycle {
			sc := scope{unit: pass*len(pl.cycle) + j}
			if pass%2 == 0 {
				sc.tr = tr
			}
			runtime.GC()
			if resettable {
				if err := resetPeakRSS(); err != nil {
					return nil, res, fmt.Errorf("reset peak RSS: %w", err)
				}
			}
			usc, end := sc.child("unit")
			t0 := time.Now()
			o, err := u.run(usc)
			secs := time.Since(t0).Seconds()
			end()
			rss, rerr := peakRSSMiB()
			if rerr != nil {
				return nil, res, rerr
			}
			if pass == 0 {
				first[j] = o.matvecs
			} else if err == nil && o.matvecs != first[j] {
				err = fmt.Errorf("repeat of cycle unit %d took %d matvecs, its first pass %d", j, o.matvecs, first[j])
			}
			rep.record(sc, o, err)
			samples = append(samples, sample{secs: secs, rssMiB: rss, route: o.route, index: j, traced: sc.tr != nil})
			if o.sweep != nil {
				res.sweep = o.sweep
			}
		}
		lastPass = time.Since(passStart)
	}
	if steal1, total1, err := cpuTimes(); statErr == nil && err == nil && total1 > total0 {
		rep.notes = append(rep.notes, fmt.Sprintf("host steal during the loop: %.1f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0)))
	}
	var counts []float64
	for _, m := range first {
		if m >= 0 {
			counts = append(counts, float64(m))
		}
	}
	res.matvecsPerUnit = mean(counts)
	return samples, res, nil
}

// record counts a unit as attempted and runs its output check, outside the
// unit's timing; an error or a failed check counts it as failed.
func (rep *report) record(sc scope, o outcome, err error) {
	rep.attempted++
	if err == nil {
		end := sc.span("check")
		err = o.check()
		end()
	}
	if err != nil {
		rep.failed++
		if rep.failed <= 5 {
			rep.notes = append(rep.notes, "FAILED: "+err.Error())
		}
	}
}

// unitBest returns, for each cycle unit, the least value over the run's
// passes. For latency: the shared host runs a unit at one of two speeds, the
// slower about 1.8 times the faster, and the share of time spent at each
// drifts over seconds; a median over all samples falls between the two and
// jumps from run to run with that share, while each unit's fastest pass stays
// put. For peak RSS: garbage a collection has not yet reclaimed adds to a
// unit's peak depending on when the collector ran. Both kinds of noise only
// ever add, so the least value estimates what the unit itself costs.
func unitBest(samples []sample, cycle int, value func(sample) float64) []float64 {
	best := make([]float64, cycle)
	for i := range best {
		best[i] = math.Inf(1)
	}
	for _, s := range samples {
		best[s.index] = math.Min(best[s.index], value(s))
	}
	return best
}

// traceOverhead is the median over cycle units of the ratio of their traced
// to their untraced median latency, minus one.
func traceOverhead(samples []sample, cycle int) float64 {
	on, off := make([][]float64, cycle), make([][]float64, cycle)
	for _, s := range samples {
		if s.traced {
			on[s.index] = append(on[s.index], s.secs)
		} else {
			off[s.index] = append(off[s.index], s.secs)
		}
	}
	var ratios []float64
	for j := range on {
		if len(on[j]) > 0 && len(off[j]) > 0 {
			ratios = append(ratios, median(on[j])/median(off[j]))
		}
	}
	return median(ratios) - 1
}

// routeShares gives each route's share of the units and of the unit time.
func routeShares(samples []sample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		total += s.secs
	}
	for _, route := range []string{"reduced", "fmmp", "kron"} {
		var n, t float64
		for _, s := range samples {
			if s.route == route {
				n++
				t += s.secs
			}
		}
		out["quasispecies.route_share."+route] = n / float64(len(samples))
		out["quasispecies.route_time_share."+route] = t / total
	}
	return out
}

// result is the JSON object of the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints the human-readable lines, one line per metric, and the
// JSON result last.
func printReport(w io.Writer, cfg config, wl *workload, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# workload %s seed=%d seconds=%g trace=%v\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# host %s %s/%s cpus=%d gomaxprocs=%d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d, failed_frac %g\n", rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	res := result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{},
	}
	var bad []string
	for _, m := range defs {
		v, ok := rep.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.Name)
			continue
		}
		fmt.Fprintf(w, "%-40s %-14.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return errors.New("no finite value for " + strings.Join(bad, ", "))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
