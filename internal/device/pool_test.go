package device

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// Tests for the persistent worker-pool dispatch and the fused stage-group
// launch API. The pool is process-wide and lazily started; these tests
// exercise coverage, nesting, concurrent submitters and the fixed chunk
// order of pooled results.

func TestLaunchStagesCoversAllItems(t *testing.T) {
	for name, d := range devices() {
		for _, n := range []int{0, 1, 63, 4096} {
			hits := make([]atomic.Int32, n)
			d.LaunchStages(3, n, 128, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("%s: item %d covered %d times (n=%d)", name, i, hits[i].Load(), n)
				}
			}
		}
	}
}

func TestLaunchStagesWeightScalesGrain(t *testing.T) {
	// With grain 4096 and weight 2048, a grid of 8 items must split across
	// workers (effective grain 2), not run as one serial chunk.
	d := New(4) // default grain 4096
	var chunks atomic.Int32
	d.LaunchStages(1, 8, 2048, func(lo, hi int) { chunks.Add(1) })
	if chunks.Load() < 2 {
		t.Errorf("weighted stage launch ran %d chunks, want ≥ 2", chunks.Load())
	}
}

// TestPoolDispatchMatchesChunkReference checks pooled LaunchRange and
// reduceSum on 6 workers against serial references: every element written
// once, and the reduction equal bit for bit to the vec.ReduceChunk pieces'
// partials summed in piece order.
func TestPoolDispatchMatchesChunkReference(t *testing.T) {
	r := rng.New(21)
	n := 3*vec.ReduceChunk + 5
	x := randVec(r, n)
	pooled := New(6, WithGrain(32))

	yp, ys := make([]float64, n), make([]float64, n)
	pooled.LaunchRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yp[i] = 3*x[i] + 1
		}
	})
	for i := range ys {
		ys[i] = 3*x[i] + 1
	}
	if vec.DistInf(yp, ys) != 0 {
		t.Error("pooled LaunchRange differs from the serial loop")
	}

	const chunk = vec.ReduceChunk
	var want float64
	for c := 0; c*chunk < n; c++ {
		partial := 0.0
		for i := c * chunk; i < min((c+1)*chunk, n); i++ {
			partial += x[i]
		}
		if c == 0 {
			want = partial
		} else {
			want += partial
		}
	}
	if got := pooled.reduceSum(n, func(i int) float64 { return x[i] }); got != want {
		t.Errorf("pooled reduceSum = %v, chunk-order reference = %v (must be bit-identical)", got, want)
	}
}

func TestNestedLaunchDoesNotDeadlock(t *testing.T) {
	// A kernel body that itself launches on the pool must complete: the
	// caller always participates in its own batch, so progress never depends
	// on a parked worker being free.
	d := New(8, WithGrain(1))
	var count atomic.Int64
	d.LaunchRange(16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d.LaunchRange(8, func(lo2, hi2 int) {
				count.Add(int64(hi2 - lo2))
			})
		}
	})
	if count.Load() != 16*8 {
		t.Errorf("nested launches covered %d items, want %d", count.Load(), 16*8)
	}
}

func TestConcurrentLaunchesFromManyGoroutines(t *testing.T) {
	// The pool serves concurrent submitters independently; each launch must
	// still cover its own grid exactly once.
	d := New(4, WithGrain(8))
	const G, n = 16, 3000
	var wg sync.WaitGroup
	wg.Add(G)
	errs := make(chan string, G)
	for g := 0; g < G; g++ {
		go func() {
			defer wg.Done()
			hits := make([]atomic.Int32, n)
			d.LaunchRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					errs <- "item covered wrong number of times under concurrent launches"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestPoolDispatchDoesNotLoseChunksUnderLoad(t *testing.T) {
	// Saturate the pool task channel so some batch sends fall back to
	// caller-runs-all; every chunk must still execute exactly once.
	d := New(16, WithGrain(1))
	for round := 0; round < 50; round++ {
		var sum atomic.Int64
		n := 257
		d.LaunchRange(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		if want := int64(n*(n-1)) / 2; sum.Load() != want {
			t.Fatalf("round %d: sum = %d, want %d", round, sum.Load(), want)
		}
	}
}

func TestBatchPartBoundsPartitionChunks(t *testing.T) {
	for _, nchunks := range []int{1, 2, 7, 31, 32, 33, 1000} {
		for _, nparts := range []int{1, 2, 5, maxBatchParts} {
			b := &batch{launch: launch{nchunks: nchunks}, nparts: nparts}
			prev := 0
			for p := 0; p < nparts; p++ {
				lo, hi := b.partBounds(p)
				if lo != prev || hi < lo {
					t.Fatalf("nchunks=%d nparts=%d: part %d = [%d,%d), prev end %d", nchunks, nparts, p, lo, hi, prev)
				}
				prev = hi
			}
			if prev != nchunks {
				t.Fatalf("nchunks=%d nparts=%d: parts cover %d chunks", nchunks, nparts, prev)
			}
		}
	}
}
