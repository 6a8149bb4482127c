package batch

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestLiveStatsTrackRuns checks the always-on scheduler counters the
// telemetry sampler polls: planned grows by the task count of every Run,
// done catches up when the run drains, and inflight returns to its baseline.
// Deltas, not absolutes — the counters accumulate across the whole test
// binary.
func TestLiveStatsTrackRuns(t *testing.T) {
	inflight0, done0, planned0 := LiveStats()

	var sawInflight atomic.Bool
	err := Run(5, 2, func(i, _ int) error {
		if in, _, _ := LiveStats(); in > inflight0 {
			sawInflight.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawInflight.Load() {
		t.Error("inflight never rose above baseline during a run")
	}

	inflight1, done1, planned1 := LiveStats()
	if inflight1 != inflight0 {
		t.Fatalf("inflight did not drain: %d, want %d", inflight1, inflight0)
	}
	if planned1-planned0 != 5 {
		t.Fatalf("planned delta = %d, want 5", planned1-planned0)
	}
	if done1-done0 != 5 {
		t.Fatalf("done delta = %d, want 5", done1-done0)
	}

	// Failing tasks still count as done — progress must reach 100% even on
	// a partially failed sweep, or the dashboard shows a stuck chain.
	boom := errors.New("boom")
	if err := Run(3, 1, func(i, _ int) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v", err)
	}
	inflight2, done2, planned2 := LiveStats()
	if inflight2 != inflight0 || done2-done1 != 3 || planned2-planned1 != 3 {
		t.Fatalf("after failing run: inflight=%d done Δ=%d planned Δ=%d",
			inflight2, done2-done1, planned2-planned1)
	}
}
