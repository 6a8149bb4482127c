package obs

import (
	"errors"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/span"
	"repro/internal/vec"
)

// profile runs work under a fresh span profile and returns the stopped
// profiler.
func profile(work func()) *SpanProfiler {
	p := StartSpanProfiler(0)
	defer p.Stop()
	work()
	return p
}

// siteCount returns how many spans of (layer, name) p recorded, 0 for a
// site it never saw.
func siteCount(p *SpanProfiler, layer, name string) int64 {
	for _, s := range p.Stats() {
		if s.Layer == layer && s.Name == name {
			return s.Count
		}
	}
	return 0
}

// argSums returns the sums of the End arguments a1 and a2 over the spans
// of the given sites.
func argSums(p *SpanProfiler, layer string, names ...string) (a1, a2 int64) {
	for _, r := range p.Rows() {
		if r.Layer != layer {
			continue
		}
		for _, n := range names {
			if r.Name == n {
				a1 += r.A1
				a2 += r.A2
			}
		}
	}
	return a1, a2
}

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

// TestSpanCountsPinned pins what the span profile counts on small known
// workloads, site by site: the values, not only their presence.
func TestSpanCountsPinned(t *testing.T) {
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
	kernelKinds := []string{mutation.KindApply, mutation.KindApplyDevice, mutation.KindStageGroup}

	t.Run("serial power iteration", func(t *testing.T) {
		var res core.PowerResult
		checks := 0
		p := profile(func() {
			var err error
			res, err = core.PowerIteration(op, core.PowerOptions{
				Tol:     1e-10,
				Monitor: func(int, float64, float64) bool { checks++; return true },
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		iters := int64(res.Iterations)
		passes, stages := segmentPlan(q)
		for site, want := range map[[2]string]int64{
			{span.LayerCore, core.SolveKindPower}:         1,
			{span.LayerCore, core.PhaseResidual}:          int64(checks),
			{span.LayerMutation, mutation.KindApply}:      iters,
			{span.LayerMutation, mutation.KindStageGroup}: iters * int64(passes),
		} {
			if got := siteCount(p, site[0], site[1]); got != want {
				t.Errorf("%s/%s spans = %d, want %d", site[0], site[1], got, want)
			}
		}
		// The solve span ends with the dimension and the iteration count.
		if dim, it := argSums(p, span.LayerCore, core.SolveKindPower); dim != int64(q.Dim()) || it != iters {
			t.Errorf("power solve span ends with (%d, %d), want (%d, %d)", dim, it, q.Dim(), iters)
		}
		// Every apply span adds ν, and its stage-group spans add the
		// stages they fuse: ν again in total.
		if got, _ := argSums(p, span.LayerMutation, kernelKinds...); got != iters*int64(nu+stages) {
			t.Errorf("kernel stage sum = %d, want %d", got, iters*int64(nu+stages))
		}
	})

	t.Run("device apply", func(t *testing.T) {
		dev := device.New(2)
		v := make([]float64, q.Dim())
		vec.Fill(v, 1)
		p := profile(func() { q.ApplyDevice(dev, v) })
		// ApplyDevice makes one LaunchStages per pass of the segment plan:
		// the tile pass and each fused cross group, the passes the serial
		// apply spans as stage groups.
		passes, _ := segmentPlan(q)
		if got := siteCount(p, span.LayerDevice, device.LaunchKindStages); got != int64(passes) {
			t.Errorf("stages launches = %d, want %d", got, passes)
		}
		if got := siteCount(p, span.LayerMutation, mutation.KindApplyDevice); got != 1 {
			t.Errorf("apply_device spans = %d, want 1", got)
		}
		// Each launch ends with its grid size and chunk count. At ν = 8 the
		// vector fits one tile, so every launch is one chunk, and a launch
		// of one chunk waits on no pool worker: it records no queue wait.
		if _, chunks := argSums(p, span.LayerDevice, device.LaunchKindStages); chunks != int64(passes) {
			t.Errorf("chunk sum = %d, want one per launch (%d)", chunks, passes)
		}
		if got := siteCount(p, span.LayerDevice, device.SpanQueueWait); got != 0 {
			t.Errorf("queue waits = %d, want none", got)
		}
	})

	t.Run("shift-invert apply is not a kernel pass", func(t *testing.T) {
		v := make([]float64, q.Dim())
		vec.Fill(v, 1)
		p := profile(func() {
			if err := q.ApplyShiftInvert(v, 2); err != nil {
				t.Fatal(err)
			}
		})
		for _, kind := range kernelKinds {
			if got := siteCount(p, span.LayerMutation, kind); got != 0 {
				t.Errorf("ApplyShiftInvert made %d %s spans", got, kind)
			}
		}
	})

	t.Run("batch run with a failing task", func(t *testing.T) {
		var err error
		p := profile(func() {
			err = batch.Run(4, 2, func(i, _ int) error {
				if i == 2 {
					return errors.New("task failed on purpose")
				}
				return nil
			})
		})
		if err == nil {
			t.Fatal("batch.Run hid the failing task")
		}
		if got := siteCount(p, span.LayerBatch, batch.SpanRun); got != 1 {
			t.Errorf("run spans = %d, want 1", got)
		}
		if got := siteCount(p, span.LayerBatch, batch.SpanTask); got != 4 {
			t.Errorf("task spans = %d, want 4", got)
		}
		// The run span ends with the task and worker counts.
		if n, w := argSums(p, span.LayerBatch, batch.SpanRun); n != 4 || w != 2 {
			t.Errorf("run span ends with (%d, %d), want (4, 2)", n, w)
		}
		if got := len(p.Stats()); got != 2 {
			t.Errorf("batch run recorded %d span sites, want run and task only", got)
		}
	})
}
