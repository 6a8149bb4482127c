// Package resolution implements the multi-resolution analysis of
// quasispecies distributions named in the paper's conclusions ("efficient
// methods which allow for computing quasispecies concentrations at various
// resolution levels"):
//
//   - hierarchical coarsening: the distribution aggregated over blocks of
//     2^s consecutive sequences at any level s;
//   - per-position marginals P(bit k = 1) and pairwise joint probabilities
//     P(bit j = 1 ∧ bit k = 1), obtainable either by direct accumulation
//     or — fittingly for this paper — from the Walsh spectrum of the
//     distribution: one FWHT yields every first- and second-order marginal
//     at once, since Walsh coefficients at singleton and pair masks are
//     exactly the ±1-encoded moments;
//   - top-k extraction of the most concentrated sequences.
//
// All functions treat x as a probability distribution over 2^ν sequences
// (Σx = 1); they do not require it but the probabilistic readings do.
package resolution

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/mutation"
)

// Coarsen aggregates x over 2^s-sized blocks of consecutive sequences:
// out[b] = Σ_{i in block b} x[i]. Level 0 returns a copy of x; level ν
// returns the single total. Blocks group sequences sharing the high
// ν−s bits, i.e. the coarse distribution over the leading positions.
func Coarsen(x []float64, level int) ([]float64, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("resolution: length %d is not a power of two", n)
	}
	nu := 0
	for 1<<nu < n {
		nu++
	}
	if level < 0 || level > nu {
		return nil, fmt.Errorf("resolution: level %d outside [0, %d]", level, nu)
	}
	block := 1 << uint(level)
	out := make([]float64, n/block)
	for b := range out {
		var s float64
		for i := b * block; i < (b+1)*block; i++ {
			s += x[i]
		}
		out[b] = s
	}
	return out, nil
}

// Marginals returns P(bit k = 1) for every position k by direct
// accumulation — Θ(N·ν).
func Marginals(x []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("resolution: length %d is not a power of two", n)
	}
	nu := 0
	for 1<<nu < n {
		nu++
	}
	m := make([]float64, nu)
	for i, v := range x {
		rem := uint64(i)
		for rem != 0 {
			k := bits.BitIndices(rem & (^rem + 1))[0]
			m[k] += v
			rem &= rem - 1
		}
	}
	return m, nil
}

// Moments holds the first- and second-order structure of a distribution
// extracted from its Walsh spectrum.
type Moments struct {
	Nu int
	// P1[k] = P(bit k = 1).
	P1 []float64
	// P2[j][k] = P(bit j = 1 ∧ bit k = 1) for j < k (upper triangle;
	// P2[k][k] = P1[k]).
	P2 [][]float64
	// Total is Σx (the Walsh coefficient at mask 0).
	Total float64
}

// WalshMoments computes all single and pairwise marginals with a single
// Θ(N·log₂N) Walsh–Hadamard transform: for mask m with bits {j, k},
//
//	ŵ(m) = Σᵢ x[i]·(−1)^{popcount(i & m)}
//
// so ŵ(2^k) = Total − 2·P1[k] and
// ŵ(2^j|2^k) = Total − 2·P1[j] − 2·P1[k] + 4·P2[j][k].
func WalshMoments(x []float64) (*Moments, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("resolution: length %d is not a power of two", n)
	}
	nu := 0
	for 1<<nu < n {
		nu++
	}
	w := append([]float64(nil), x...)
	mutation.FWHT(w)
	m := &Moments{Nu: nu, Total: w[0]}
	m.P1 = make([]float64, nu)
	for k := 0; k < nu; k++ {
		m.P1[k] = (m.Total - w[1<<uint(k)]) / 2
	}
	m.P2 = make([][]float64, nu)
	for j := 0; j < nu; j++ {
		m.P2[j] = make([]float64, nu)
		m.P2[j][j] = m.P1[j]
	}
	for j := 0; j < nu; j++ {
		for k := j + 1; k < nu; k++ {
			c := w[(1<<uint(j))|(1<<uint(k))]
			p2 := (c - m.Total + 2*m.P1[j] + 2*m.P1[k]) / 4
			m.P2[j][k] = p2
			m.P2[k][j] = p2
		}
	}
	return m, nil
}

// Covariance returns Cov(bit j, bit k) = P2[j][k] − P1[j]·P1[k]; positive
// covariance means the two positions tend to mutate together in the
// stationary population (linkage).
func (m *Moments) Covariance(j, k int) float64 {
	return m.P2[j][k] - m.P1[j]*m.P1[k]
}

// SequenceConcentration is one entry of a top-k result.
type SequenceConcentration struct {
	Sequence      uint64
	Concentration float64
}

// TopK returns the k most concentrated sequences in descending order
// (ties broken by sequence index) using a single pass with a bounded
// selection buffer — Θ(N·log k).
func TopK(x []float64, k int) []SequenceConcentration {
	if k <= 0 {
		return nil
	}
	if k > len(x) {
		k = len(x)
	}
	// Maintain a sorted buffer of the current best k (k is small).
	buf := make([]SequenceConcentration, 0, k+1)
	for i, v := range x {
		if len(buf) == k && v <= buf[k-1].Concentration {
			continue
		}
		e := SequenceConcentration{Sequence: uint64(i), Concentration: v}
		pos := sort.Search(len(buf), func(t int) bool {
			if buf[t].Concentration != e.Concentration {
				return buf[t].Concentration < e.Concentration
			}
			return buf[t].Sequence > e.Sequence
		})
		buf = append(buf, SequenceConcentration{})
		copy(buf[pos+1:], buf[pos:])
		buf[pos] = e
		if len(buf) > k {
			buf = buf[:k]
		}
	}
	return buf
}
