package obs

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/vec"
)

// metricValue reads one registered qs_* value (a histogram reads as its
// observation count).
func metricValue(t *testing.T, name string) float64 {
	t.Helper()
	switch v := Default().Snapshot()[name].(type) {
	case int64:
		return float64(v)
	case jsonFloat:
		return float64(v)
	case map[string]any:
		return float64(v["count"].(int64))
	}
	t.Fatalf("metric %s is not registered", name)
	return 0
}

// metricDeltas snapshots a set of metrics and, via the returned function,
// reports how far each moved since.
func metricDeltas(t *testing.T, names ...string) func() map[string]float64 {
	t.Helper()
	before := make(map[string]float64, len(names))
	for _, n := range names {
		before[n] = metricValue(t, n)
	}
	return func() map[string]float64 {
		t.Helper()
		d := make(map[string]float64, len(names))
		for _, n := range names {
			d[n] = metricValue(t, n) - before[n]
		}
		return d
	}
}

var kernelFamilies = func() []string {
	var out []string
	for _, kind := range []string{
		mutation.KindApply, mutation.KindApplyDevice, mutation.KindStageGroup,
	} {
		out = append(out,
			`qs_kernel_applies_total{kind="`+kind+`"}`,
			`qs_kernel_apply_seconds{kind="`+kind+`"}`)
	}
	return append(out, "qs_kernel_stages_total")
}()

// segmentPlan returns how many fused passes one serial Apply of q makes
// and how many butterfly stages they cover: a run of single-bit factors is
// one blocked pass, a grouped factor a pass of its own.
func segmentPlan(q *mutation.Process) (passes, stages int) {
	run := false
	for _, g := range q.GroupSizes() {
		stages += g
		if g == 1 && run {
			continue
		}
		passes++
		run = g == 1
	}
	return passes, stages
}

// TestSolverMetricValuesPinned pins what the qs_* families count on small
// known workloads, step by step: the values, not only their presence. The
// workloads run twice, bare and under a running span profile, which must
// not change a single count.
func TestSolverMetricValuesPinned(t *testing.T) {
	EnableSolverMetrics()
	t.Run("metrics only", pinSolverMetrics)
	t.Run("with span profile", func(t *testing.T) {
		p := StartSpanProfiler(0)
		defer p.Stop()
		pinSolverMetrics(t)
	})
}

func pinSolverMetrics(t *testing.T) {

	const nu = 8
	q := mutation.MustUniform(nu, 0.01)
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("serial power iteration", func(t *testing.T) {
		names := append([]string{
			"qs_power_iterations_total",
			"qs_power_residual_checks_total",
			`qs_power_solves_total{kind="power"}`,
			`qs_power_outcomes_total{outcome="converged"}`,
		}, kernelFamilies...)
		delta := metricDeltas(t, names...)
		checks := 0
		res, err := core.PowerIteration(op, core.PowerOptions{
			Tol:     1e-10,
			Monitor: func(int, float64, float64) bool { checks++; return true },
		})
		if err != nil {
			t.Fatal(err)
		}
		d := delta()
		iters := float64(res.Iterations)
		passes, stages := segmentPlan(q)
		want := map[string]float64{
			"qs_power_iterations_total":                    iters,
			"qs_power_residual_checks_total":               float64(checks),
			`qs_power_solves_total{kind="power"}`:          1,
			`qs_power_outcomes_total{outcome="converged"}`: 1,
			`qs_kernel_applies_total{kind="apply"}`:        iters,
			`qs_kernel_apply_seconds{kind="apply"}`:        iters,
			`qs_kernel_applies_total{kind="stage_group"}`:  iters * float64(passes),
			`qs_kernel_apply_seconds{kind="stage_group"}`:  iters * float64(passes),
			// Every apply span adds ν, and its stage-group spans add the
			// stages they fuse: ν again in total.
			"qs_kernel_stages_total": iters * float64(nu+stages),
		}
		for _, n := range names {
			if d[n] != want[n] {
				t.Errorf("%s moved by %g, want %g", n, d[n], want[n])
			}
		}
		if got := metricValue(t, "qs_power_last_residual"); got != res.Residual {
			t.Errorf("qs_power_last_residual = %g, want the solve's residual %g", got, res.Residual)
		}
	})

	t.Run("device apply", func(t *testing.T) {
		dev := device.New(2)
		v := make([]float64, q.Dim())
		vec.Fill(v, 1)
		delta := metricDeltas(t,
			`qs_device_launches_total{kind="stages"}`,
			"qs_device_queue_wait_seconds",
			"qs_device_launch_seconds",
			`qs_kernel_applies_total{kind="apply_device"}`)
		q.ApplyDevice(dev, v)
		d := delta()
		// ApplyDevice makes one LaunchStages per pass of the segment plan:
		// the tile pass and each fused cross group, the passes the serial
		// apply spans as stage groups.
		passes, _ := segmentPlan(q)
		launches := float64(passes)
		for name, want := range map[string]float64{
			`qs_device_launches_total{kind="stages"}`:      launches,
			"qs_device_queue_wait_seconds":                 launches,
			"qs_device_launch_seconds":                     launches,
			`qs_kernel_applies_total{kind="apply_device"}`: 1,
		} {
			if d[name] != want {
				t.Errorf("%s moved by %g, want %g", name, d[name], want)
			}
		}
	})

	t.Run("shift-invert apply is not a kernel pass", func(t *testing.T) {
		delta := metricDeltas(t, kernelFamilies...)
		v := make([]float64, q.Dim())
		vec.Fill(v, 1)
		if err := q.ApplyShiftInvert(v, 2); err != nil {
			t.Fatal(err)
		}
		for n, dv := range delta() {
			if dv != 0 {
				t.Errorf("ApplyShiftInvert moved %s by %g", n, dv)
			}
		}
	})

	t.Run("batch run with a failing task", func(t *testing.T) {
		delta := metricDeltas(t,
			"qs_batch_runs_total", "qs_batch_tasks_total",
			"qs_batch_task_failures_total", "qs_batch_task_seconds",
			"qs_batch_run_seconds", "qs_batch_tasks_inflight")
		err := batch.Run(4, 2, func(i, _ int) error {
			if i == 2 {
				return errors.New("task failed on purpose")
			}
			return nil
		})
		if err == nil {
			t.Fatal("batch.Run hid the failing task")
		}
		d := delta()
		for name, want := range map[string]float64{
			"qs_batch_runs_total":          1,
			"qs_batch_tasks_total":         4,
			"qs_batch_task_failures_total": 1,
			"qs_batch_task_seconds":        4,
			"qs_batch_run_seconds":         1,
			"qs_batch_tasks_inflight":      0,
		} {
			if d[name] != want {
				t.Errorf("%s moved by %g, want %g", name, d[name], want)
			}
		}
	})
}

// TestMetricsExpositionGolden renders the /metrics exposition of a fresh
// registry holding the qs_* families the span subscriber feeds, with the
// values stripped, and compares its HELP/TYPE lines and series keys with
// testdata/metrics.golden. A family added, renamed or dropped shows up as a
// diff against the committed file.
func TestMetricsExpositionGolden(t *testing.T) {
	r := NewRegistry()
	newSolverMetrics(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		got.WriteString(line + "\n")
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("exposition differs from testdata/metrics.golden; current rendering:\n%s", got.String())
	}
}
