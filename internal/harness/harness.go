// Package harness drives the paper's evaluation: it measures the
// matrix–vector product variants (Figure 2), the full power-iteration
// solves (Figure 3), derives the algorithm×hardware speedup matrix
// (Figure 4) and sweeps the error rate for the error-threshold curves
// (Figure 1). Output is structured series data that the cmd tools render
// as TSV, so every figure in the paper maps to one callable function here
// plus one benchmark in the repository root.
//
// Where the paper extrapolates (the Θ(N²) reference beyond ν = 21 — "the
// execution times for Pi(Xmvp(ν)) are so long that they had to be
// extrapolated"), this package does the same: a least-squares fit of the
// model t = c·N²(·iters) on the measured prefix, extended to larger ν.
package harness

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Sample is one measured (or extrapolated) point of a runtime series.
type Sample struct {
	Nu           int     // chain length
	Seconds      float64 // wall time
	Iterations   int     // solver iterations, when applicable
	Extrapolated bool    // true when the point was model-extended
}

// Series is a named runtime curve over chain lengths.
type Series struct {
	Name    string
	Samples []Sample
}

// At returns the sample for chain length nu.
func (s *Series) At(nu int) (Sample, bool) {
	for _, smp := range s.Samples {
		if smp.Nu == nu {
			return smp, true
		}
	}
	return Sample{}, false
}

// MeasureSeconds times one invocation of f with a monotonic clock.
func MeasureSeconds(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// MeasureBest runs f reps times and returns the fastest time — the
// standard way to strip scheduler noise from short kernels.
func MeasureBest(reps int, f func()) float64 {
	if reps < 1 {
		reps = 1
	}
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		if t := MeasureSeconds(f); t < best {
			best = t
		}
	}
	return best
}

// ScalingModel maps a chain length to the predicted work of an algorithm
// (up to a constant factor).
type ScalingModel func(nu int) float64

// ModelN2 is the Θ(N²) cost of Smvp/Xmvp(ν) per product.
func ModelN2(nu int) float64 {
	n := math.Pow(2, float64(nu))
	return n * n
}

// ModelNNeighborhood returns the Θ(N·Σ_{k≤dmax}C(ν,k)) cost of Xmvp(dmax).
func ModelNNeighborhood(dmax int) ScalingModel {
	return func(nu int) float64 {
		n := math.Pow(2, float64(nu))
		var masks float64
		for k := 0; k <= dmax && k <= nu; k++ {
			masks += binomFloat(nu, k)
		}
		return n * masks
	}
}

func binomFloat(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// FitConstant returns the least-squares constant c minimizing
// Σ (log t_i − log(c·model(ν_i)))², i.e. the geometric-mean ratio of the
// measured times to the model — robust across the orders of magnitude a
// runtime curve spans. Extrapolated samples are excluded.
func FitConstant(s *Series, model ScalingModel) (float64, error) {
	var logSum float64
	n := 0
	for _, smp := range s.Samples {
		if smp.Extrapolated || smp.Seconds <= 0 {
			continue
		}
		logSum += math.Log(smp.Seconds / model(smp.Nu))
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("harness: no measured samples to fit in series %q", s.Name)
	}
	return math.Exp(logSum / float64(n)), nil
}

// ExtendByModel appends extrapolated samples for the chain lengths in nus
// that the series lacks, using c·model(ν) with c fitted on the measured
// samples — the paper's methodology for the ν ≥ 22 reference values.
func ExtendByModel(s *Series, model ScalingModel, nus []int) error {
	c, err := FitConstant(s, model)
	if err != nil {
		return err
	}
	for _, nu := range nus {
		if _, ok := s.At(nu); ok {
			continue
		}
		s.Samples = append(s.Samples, Sample{Nu: nu, Seconds: c * model(nu), Extrapolated: true})
	}
	return nil
}

// SpeedupTable computes, for each chain length present in the reference
// series, the ratio reference/series for every comparison series — the
// content of Figure 4.
type SpeedupTable struct {
	Nus       []int
	Reference string
	Names     []string
	// Speedup[i][j] is the speedup of series j at Nus[i]; NaN if missing.
	Speedup [][]float64
}

// Speedups builds the speedup table of the comparison series against the
// reference series.
func Speedups(reference *Series, comparisons []*Series) *SpeedupTable {
	t := &SpeedupTable{Reference: reference.Name}
	for _, c := range comparisons {
		t.Names = append(t.Names, c.Name)
	}
	for _, ref := range reference.Samples {
		row := make([]float64, len(comparisons))
		for j, c := range comparisons {
			if smp, ok := c.At(ref.Nu); ok && smp.Seconds > 0 {
				row[j] = ref.Seconds / smp.Seconds
			} else {
				row[j] = math.NaN()
			}
		}
		t.Nus = append(t.Nus, ref.Nu)
		t.Speedup = append(t.Speedup, row)
	}
	return t
}

// WriteTSV renders the speedup table as tab-separated values.
func (t *SpeedupTable) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "nu"); err != nil {
		return err
	}
	for _, n := range t.Names {
		if _, err := fmt.Fprintf(w, "\t%s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, nu := range t.Nus {
		if _, err := fmt.Fprintf(w, "%d", nu); err != nil {
			return err
		}
		for _, v := range t.Speedup[i] {
			if _, err := fmt.Fprintf(w, "\t%.6g", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesTSV renders runtime series side by side as TSV: one row per
// chain length, one column per series ("*" marks extrapolated values).
func WriteSeriesTSV(w io.Writer, series []*Series) error {
	nuSet := map[int]bool{}
	for _, s := range series {
		for _, smp := range s.Samples {
			nuSet[smp.Nu] = true
		}
	}
	var nus []int
	for nu := 0; nu <= 64; nu++ {
		if nuSet[nu] {
			nus = append(nus, nu)
		}
	}
	if _, err := fmt.Fprint(w, "nu"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "\t%s", s.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, nu := range nus {
		if _, err := fmt.Fprintf(w, "%d", nu); err != nil {
			return err
		}
		for _, s := range series {
			if smp, ok := s.At(nu); ok {
				mark := ""
				if smp.Extrapolated {
					mark = "*"
				}
				if _, err := fmt.Fprintf(w, "\t%.6g%s", smp.Seconds, mark); err != nil {
					return err
				}
			} else if _, err := fmt.Fprint(w, "\t-"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
