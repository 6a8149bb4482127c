package device

// Aligned, huge-page-friendly vector allocation for the solver's Θ(N)
// scratch. Two concerns are separated on purpose:
//
//   - Alignment. AlignedFloat64s over-allocates from the Go heap and
//     re-slices to a 64-byte boundary, so a vector's first element starts a
//     cache line (and an AVX-512 lane). The memory stays ordinary GC-managed
//     heap — no mmap lifetime to track, no leak on reshape.
//   - Page size. For allocations at or above hugeAdviseMin the interior
//     2 MiB-aligned span is advised MADV_HUGEPAGE (Linux; no-op elsewhere),
//     so ν ≥ 18 vectors are backed by transparent huge pages when the
//     kernel agrees: one TLB entry per 2 MiB instead of per 4 KiB, which is
//     where the stage sweeps of the butterfly kernels spend their TLB
//     budget.
//
// First-touch placement is the third leg: pages are physically allocated on
// the node of the CPU that first writes them, and AllocVector faults them
// in on the allocating goroutine.

import "unsafe"

// CacheLine is the alignment (bytes) of vectors returned by the allocators
// here; 64 bytes is a cache line and an AVX-512 register on amd64.
const CacheLine = 64

// hugeAdviseMin is the allocation size (in float64s) from which the huge-page
// advice is worth a syscall: 2 MiB = one huge page = 2^18 float64s, i.e.
// vectors of ν ≥ 18.
const hugeAdviseMin = 1 << 18

// AlignedFloat64s returns a zeroed slice of n float64s whose first element
// is CacheLine-aligned, with len == cap == n. Large allocations are advised
// toward huge pages. n ≤ 0 returns an empty slice.
func AlignedFloat64s(n int) []float64 {
	if n <= 0 {
		return nil
	}
	const pad = CacheLine / 8 // extra elements to guarantee an aligned start
	buf := make([]float64, n+pad)
	addr := uintptr(unsafe.Pointer(&buf[0]))
	off := 0
	if rem := addr % CacheLine; rem != 0 {
		off = int((CacheLine - rem) / 8)
	}
	v := buf[off : off+n : off+n]
	if n >= hugeAdviseMin {
		adviseHuge(v)
	}
	return v
}

// AllocVector returns an aligned, huge-page-advised vector of n float64s,
// first-touched serially by the calling goroutine (its pages land on the
// caller's NUMA node). The solver's Θ(N) vectors all come from here.
func AllocVector(n int) []float64 {
	v := AlignedFloat64s(n)
	for i := range v {
		v[i] = 0
	}
	return v
}
