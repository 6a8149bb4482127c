// Package rng provides a small, deterministic, splittable pseudo-random
// number generator for the tests: their random vectors, landscapes and
// property-based cases. No solver route imports it; the random landscape
// of Eq. 13 hashes its index instead. It implements xoshiro256** seeded
// through splitmix64, so streams are identical across platforms and Go
// releases (unlike math/rand's global source, whose sequence is not
// guaranteed).
package rng

import (
	"math"
	mathbits "math/bits"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed via splitmix64, which
// guarantees a well-mixed nonzero internal state for any seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Split returns a new independent Source derived from the current state.
// The parent stream advances by one step.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits,
// the η_rnd(i) of the paper's random landscape (Eq. 13).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	threshold := (-n) % n
	for {
		hi, lo := mathbits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// Normal returns a standard normal variate via the polar Marsaglia method.
func (r *Source) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
