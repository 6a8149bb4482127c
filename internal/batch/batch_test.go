package batch

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 53
		counts := make([]atomic.Int32, n)
		err := Run(n, workers, func(i, _ int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: task %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestRunDeterministicResultOrdering(t *testing.T) {
	// Results written by index must be independent of scheduling.
	const n = 40
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 8} {
		got := make([]int, n)
		if err := Run(n, workers, func(i, _ int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := Run(20, workers, func(i, _ int) error {
			if i == 7 || i == 13 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if !strings.Contains(err.Error(), "task 7") {
			t.Errorf("workers=%d: want the lowest-indexed failure reported, got %v", workers, err)
		}
	}
}

func TestRunBoundsSlots(t *testing.T) {
	// At most `workers` distinct worker indices may ever be observed.
	const n, workers = 64, 3
	var mu sync.Mutex
	seen := map[int]bool{}
	if err := Run(n, workers, func(i, worker int) error {
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) > workers {
		t.Errorf("observed %d worker indices, want ≤ %d", len(seen), workers)
	}
}

// TestRunWorkerIndexExclusive checks the contract callers index per-worker
// scratch by: every worker index lies in [0, min(workers, n)), and no two
// running tasks ever share one. Each task claims its index's busy flag on
// entry and releases it on exit; a failed claim means two tasks overlapped
// on one index. The serial path reports worker 0.
func TestRunWorkerIndexExclusive(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{1, 1}, {17, 1}, {64, 3}, {5, 8}, {40, 4}} {
		limit := min(c.workers, c.n)
		busy := make([]atomic.Bool, limit)
		err := Run(c.n, c.workers, func(i, worker int) error {
			if worker < 0 || worker >= limit {
				return fmt.Errorf("worker index %d outside [0, %d)", worker, limit)
			}
			if c.workers == 1 && worker != 0 {
				return fmt.Errorf("serial path reported worker %d", worker)
			}
			if !busy[worker].CompareAndSwap(false, true) {
				return fmt.Errorf("worker index %d shared by concurrent tasks", worker)
			}
			runtime.Gosched()
			busy[worker].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
	}
}

func TestChainsPartition(t *testing.T) {
	cs := Chains(19, 8)
	if len(cs) != 3 || cs[0] != (Chain{0, 8}) || cs[1] != (Chain{8, 16}) || cs[2] != (Chain{16, 19}) {
		t.Errorf("chains = %v", cs)
	}
	if got := Chains(0, 8); got != nil {
		t.Errorf("empty range gave %v", got)
	}
	// Default chain length kicks in for chainLen <= 0.
	if cs := Chains(DefaultChainLen+1, 0); len(cs) != 2 {
		t.Errorf("default chain split = %v", cs)
	}
	// The default layout: eight-point chains up to 64 points, then at most
	// eight chains of ⌈n/8⌉ points, the last one holding the remainder.
	for _, c := range []struct {
		n    int
		lens []int
	}{
		{1, []int{1}},
		{8, []int{8}},
		{64, []int{8, 8, 8, 8, 8, 8, 8, 8}},
		{65, []int{9, 9, 9, 9, 9, 9, 9, 2}},
		{200, []int{25, 25, 25, 25, 25, 25, 25, 25}},
		{256, []int{32, 32, 32, 32, 32, 32, 32, 32}},
	} {
		cs := Chains(c.n, 0)
		lens := make([]int, len(cs))
		next := 0
		for i, ch := range cs {
			if ch.Lo != next {
				t.Errorf("n=%d: chain %d starts at %d, want %d", c.n, i, ch.Lo, next)
			}
			lens[i], next = ch.Hi-ch.Lo, ch.Hi
		}
		if next != c.n || !slices.Equal(lens, c.lens) {
			t.Errorf("n=%d: default chain lengths %v, want %v", c.n, lens, c.lens)
		}
	}
	// An explicit length wins over the default layout.
	if cs := Chains(200, 8); len(cs) != 25 {
		t.Errorf("Chains(200, 8) gave %d chains, want 25", len(cs))
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit count must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("non-positive count must select at least one worker")
	}
}
