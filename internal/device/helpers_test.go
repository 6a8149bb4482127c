package device

import "unsafe"

// launchEach runs kernel(id) for every logical thread id in [0, n) through
// LaunchRange.
func (d *Device) launchEach(n int, kernel func(id int)) {
	d.LaunchRange(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			kernel(id)
		}
	})
}

// reduce folds f(0) … f(n−1) with combine through reduceChunks, the
// chunk-ordered reduction behind Dot, Norm2 and the power passes.
func (d *Device) reduce(n int, identity float64, f func(i int) float64, combine func(a, b float64) float64) float64 {
	s, _ := d.reduceChunks(n, identity, func(lo, hi int) (float64, float64) {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = combine(acc, f(i))
		}
		return acc, identity
	}, combine)
	return s
}

// reduceSum is Σ f(i) for i in [0, n) through reduce.
func (d *Device) reduceSum(n int, f func(i int) float64) float64 {
	return d.reduce(n, 0, f, addf)
}

// resetStats zeroes the device counters.
func (d *Device) resetStats() {
	d.launches.Store(0)
	d.threadsTotal.Store(0)
	d.chunksTotal.Store(0)
	d.reduceLaunches.Store(0)
	d.stageLaunches.Store(0)
	d.stagesFused.Store(0)
}

// isAligned reports whether v starts on a CacheLine boundary (true for the
// empty slice).
func isAligned(v []float64) bool {
	if len(v) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&v[0]))%CacheLine == 0
}
