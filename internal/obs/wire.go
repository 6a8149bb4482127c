package obs

import (
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mutation"
	"repro/internal/span"
)

// wire.go is where obs reaches into the solver packages for metrics:
// EnableSolverMetrics builds the qs_* metric families in the default
// registry and subscribes them to the span recorder (hook.go), keyed by
// the span names the solver packages export. The solver packages never
// import obs.

// metricSite is what the spans of one site (layer, name) move in the qs_*
// families; a nil field is a family the site does not feed.
type metricSite struct {
	started  *Counter   // +1 at Begin
	inflight *Gauge     // +1 at Begin, −1 at End
	done     *Counter   // +1 at End, or per post-hoc Record
	seconds  *Histogram // the span's duration
	sum1     *Counter   // running sum of the first End argument
	sum2     *Counter   // running sum of the second End argument
}

func (s *metricSite) begin() {
	if s.started != nil {
		s.started.Inc()
	}
	if s.inflight != nil {
		s.inflight.Add(1)
	}
}

// timed reports whether the site reads anything when its span ends; a
// site that only counts its Begin needs no handle and no clock.
func (s *metricSite) timed() bool {
	return s.inflight != nil || s.done != nil || s.seconds != nil || s.sum1 != nil || s.sum2 != nil
}

func (s *metricSite) end(d time.Duration, a1, a2 int64) {
	if s.inflight != nil {
		s.inflight.Add(-1)
	}
	if s.done != nil {
		s.done.Inc()
	}
	if s.seconds != nil {
		s.seconds.Observe(d.Seconds())
	}
	if s.sum1 != nil {
		s.sum1.Add(a1)
	}
	if s.sum2 != nil {
		s.sum2.Add(a2)
	}
}

// solverMetrics is the span subscriber behind the qs_kernel_*,
// qs_device_*, qs_batch_* and qs_power_* families: the span sites they
// read, and the residual-check counters of the solve spans.
type solverMetrics struct {
	sites    map[spanKey]*metricSite
	iters    *Counter
	checks   *Counter
	outcomes map[string]*Counter
	lastRes  *GaugeFloat
}

func (m *solverMetrics) check(iters int64, residual float64, outcome string) {
	if outcome == "" {
		m.iters.Add(iters)
		m.checks.Inc()
		return
	}
	if c := m.outcomes[outcome]; c != nil {
		c.Inc()
	}
	m.lastRes.Set(residual)
}

// sweepMetrics backs RecordSweepPoint and RecordSweepStart.
type sweepMetrics struct {
	points   *Counter
	iters    *Counter
	warmHits *Counter
	lastP    *GaugeFloat
	planned  *Counter
}

var wire struct {
	once  sync.Once
	sweep *sweepMetrics
}

// EnableSolverMetrics registers the qs_* metric families in the default
// registry and subscribes them to the solver's span recorder (mutation
// kernels, device launches, batch scheduler, eigensolvers). Idempotent;
// call once at tool startup — StartDebugServer calls it for you.
func EnableSolverMetrics() {
	wire.once.Do(func() {
		sm, sweep := newSolverMetrics(Default())
		subscribe(func(f *fanout) { f.met = sm })
		wire.sweep = sweep
	})
}

// newSolverMetrics registers the qs_* families in r: the span subscriber's
// sites and the sweep families behind RecordSweep*.
func newSolverMetrics(r *Registry) (*solverMetrics, *sweepMetrics) {
	sb := SecondsBuckets()
	sm := &solverMetrics{
		sites:    map[spanKey]*metricSite{},
		iters:    r.Counter("qs_power_iterations_total", "Power-iteration steps performed (accumulated at residual checks)."),
		checks:   r.Counter("qs_power_residual_checks_total", "Residual evaluations performed."),
		outcomes: map[string]*Counter{},
		lastRes:  r.GaugeFloat("qs_power_last_residual", "Residual reported by the most recently finished solve."),
	}

	stages := r.Counter("qs_kernel_stages_total", "Butterfly stages executed by instrumented kernel passes.")
	for _, kind := range []string{
		mutation.KindApply, mutation.KindApplyDevice, mutation.KindStageGroup,
	} {
		sm.sites[spanKey{span.LayerMutation, kind}] = &metricSite{
			done: r.Counter(
				`qs_kernel_applies_total{kind="`+kind+`"}`,
				"Mutation kernel passes by kind (apply, apply_device, stage_group)."),
			seconds: r.Histogram(
				`qs_kernel_apply_seconds{kind="`+kind+`"}`,
				"Wall time of mutation kernel passes by kind.", sb),
			sum1: stages,
		}
	}

	chunks := r.Counter("qs_device_chunks_total", "Chunks dispatched by observed device launches.")
	launchSec := r.Histogram("qs_device_launch_seconds", "Wall time of device kernel launches.", sb)
	for _, kind := range []string{
		device.LaunchKindRange, device.LaunchKindStages, device.LaunchKindReduce,
	} {
		sm.sites[spanKey{span.LayerDevice, kind}] = &metricSite{
			done: r.Counter(
				`qs_device_launches_total{kind="`+kind+`"}`,
				"Device kernel launches by kind (range, stages, reduce)."),
			seconds: launchSec, sum2: chunks,
		}
	}
	sm.sites[spanKey{span.LayerDevice, device.SpanQueueWait}] = &metricSite{
		seconds: r.Histogram("qs_device_queue_wait_seconds", "Barrier tail the submitter spent waiting on pool workers.", sb),
	}

	sm.sites[spanKey{span.LayerBatch, batch.SpanRun}] = &metricSite{
		started: r.Counter("qs_batch_runs_total", "Batched scheduler runs started."),
		seconds: r.Histogram("qs_batch_run_seconds", "Wall time of whole scheduler runs.", sb),
	}
	sm.sites[spanKey{span.LayerBatch, batch.SpanTask}] = &metricSite{
		inflight: r.Gauge("qs_batch_tasks_inflight", "Scheduler tasks currently executing (slot occupancy)."),
		done:     r.Counter("qs_batch_tasks_total", "Scheduler tasks completed."),
		seconds:  r.Histogram("qs_batch_task_seconds", "Wall time of individual scheduler tasks.", sb),
	}
	sm.sites[spanKey{span.LayerBatch, batch.SpanTaskFailed}] = &metricSite{
		done: r.Counter("qs_batch_task_failures_total", "Scheduler tasks that returned an error."),
	}

	for _, kind := range []string{
		core.SolveKindPower, core.SolveKindLanczos,
		core.SolveKindShiftInvert, core.SolveKindChebyshev, core.SolveKindArnoldi,
	} {
		sm.sites[spanKey{span.LayerCore, kind}] = &metricSite{
			started: r.Counter(
				`qs_power_solves_total{kind="`+kind+`"}`,
				"Eigensolves started by kind (power, lanczos, shift_invert, chebyshev, arnoldi)."),
		}
	}
	for _, outcome := range []string{
		core.EventConverged, core.EventStagnated, core.EventBudgetExhausted,
		core.EventBreakdown, core.EventAborted,
	} {
		sm.outcomes[outcome] = r.Counter(
			`qs_power_outcomes_total{outcome="`+outcome+`"}`,
			"Eigensolve terminations by outcome.")
	}
	sweep := &sweepMetrics{
		points:   r.Counter("qs_sweep_points_total", "Sweep points solved."),
		iters:    r.Counter("qs_sweep_iterations_total", "Power iterations accumulated over sweep points."),
		warmHits: r.Counter("qs_sweep_warm_hits_total", "Sweep points solved from a warm-start seed."),
		lastP:    r.GaugeFloat("qs_sweep_last_p", "Mutation probability of the most recently solved sweep point."),
		planned:  r.Counter("qs_sweep_points_planned_total", "Sweep points announced by sweep drivers before solving."),
	}

	return sm, sweep
}

// RecordSweepStart announces a sweep of n points before any of them solve,
// feeding qs_sweep_points_planned_total so dashboards can show progress
// (points_total / points_planned_total). A no-op until EnableSolverMetrics.
func RecordSweepStart(n int) {
	m := wire.sweep
	if m == nil || n <= 0 {
		return
	}
	m.planned.Add(int64(n))
}

// RecordSweepPoint feeds the qs_sweep_* families with one finished sweep
// point: its mutation probability p, the iterations its solve took, and
// whether it started from a warm seed. A no-op until EnableSolverMetrics
// has run.
func RecordSweepPoint(p float64, iters int, warm bool) {
	m := wire.sweep
	if m == nil {
		return
	}
	m.points.Inc()
	m.iters.Add(int64(iters))
	if warm {
		m.warmHits.Inc()
	}
	m.lastP.Set(p)
}
