package device

import (
	"unsafe"

	"repro/internal/vec"
)

// launchEach runs kernel(id) for every logical thread id in [0, n) through
// LaunchRange.
func (d *Device) launchEach(n int, kernel func(id int)) {
	d.LaunchRange(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			kernel(id)
		}
	})
}

// reduceSum is Σ f(i) for i in [0, n): each vec.ReduceChunk piece folded
// left to right, the piece sums added in ascending order, through
// reduceChunks when the reduction launches and on the caller otherwise.
func (d *Device) reduceSum(n int, f func(i int) float64) float64 {
	piece := func(lo, hi int) (float64, float64) {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		return s, 0
	}
	if !d.serial(n) {
		s, _ := d.reduceChunks(n, piece)
		return s
	}
	s, _ := piece(0, min(n, vec.ReduceChunk))
	for lo := vec.ReduceChunk; lo < n; lo += vec.ReduceChunk {
		p, _ := piece(lo, min(n, lo+vec.ReduceChunk))
		s += p
	}
	return s
}

// isAligned reports whether v starts on a CacheLine boundary (true for the
// empty slice).
func isAligned(v []float64) bool {
	if len(v) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&v[0]))%CacheLine == 0
}
