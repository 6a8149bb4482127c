package main

import (
	"math"
	"slices"
	"testing"
)

func TestPercentile(t *testing.T) {
	tests := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{5}, 50, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, 1},
		{[]float64{2, 1, 3}, 50, 2},
	}
	for _, tt := range tests {
		if got := percentile(tt.xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", tt.xs, tt.p, got, tt.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %g, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected values are exact: with integer Beta parameters the weights
// are binomial sums.
func TestHarrellDavis(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	tests := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{5, 1, 9, 3, 7}, 0.5, 5},
		{[]float64{8, 4, 2, 1}, 0.6, 4.37109375},
		{seq(9), 0.9, 8.517618449962773},
		{[]float64{7}, 0.9, 7},
	}
	for _, tt := range tests {
		if got := hdQuantile(tt.xs, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("hdQuantile(%v, %g) = %.17g, want %.17g", tt.xs, tt.q, got, tt.want)
		}
	}
	if got := hdQuantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("hdQuantile(nil) = %g, want NaN", got)
	}
	// A 90/10 mixture of two values: the order statistic at 0.9 sits on the
	// edge between the groups, while the estimate lies between them.
	var mix []float64
	for i := 0; i < 2000; i++ {
		v := 1.0
		if i%10 == 9 {
			v = 2
		}
		mix = append(mix, v)
	}
	if got := hdQuantile(mix, 0.9); !(got > 1.2 && got < 1.8) {
		t.Errorf("Harrell–Davis p90 of a 90/10 mixture of 1 and 2 = %g, want between the groups", got)
	}
}

// Each cycle unit keeps its least value over the passes, however they
// interleave, for each measured quantity on its own.
func TestUnitBest(t *testing.T) {
	samples := []sample{
		{secs: 3, rssMiB: 10, index: 0}, {secs: 5, rssMiB: 30, index: 1}, {secs: 1, rssMiB: 50, index: 2},
		{secs: 2, rssMiB: 20, index: 0}, {secs: 6, rssMiB: 40, index: 1}, {secs: 4, rssMiB: 5, index: 2},
	}
	if got, want := unitBest(samples, 3, func(s sample) float64 { return s.secs }), []float64{2, 5, 1}; !slices.Equal(got, want) {
		t.Errorf("unitBest(secs) = %v, want %v", got, want)
	}
	if got, want := unitBest(samples, 3, func(s sample) float64 { return s.rssMiB }), []float64{10, 30, 5}; !slices.Equal(got, want) {
		t.Errorf("unitBest(rssMiB) = %v, want %v", got, want)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	tests := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 4, 5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, tt := range tests {
		q1, q2, q3 := quartiles(tt.xs)
		if math.Abs(q1-tt.q1) > 1e-12 || math.Abs(q2-tt.q2) > 1e-12 || math.Abs(q3-tt.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", tt.xs, q1, q2, q3, tt.q1, tt.q2, tt.q3)
		}
	}
	if got, want := spread([]float64{10, 20, 30, 40}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %g, want NaN", q1)
	}
}

func TestTailPercentile(t *testing.T) {
	tests := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, tt := range tests {
		got, ok := tailPercentile(tt.n)
		if got != tt.want || ok != tt.ok {
			t.Errorf("tailPercentile(%d) = %g, %v, want %g, %v", tt.n, got, ok, tt.want, tt.ok)
		}
	}
}

func TestWorse(t *testing.T) {
	tests := []struct {
		base, change, bound float64
		better              string
		want                bool
	}{
		{1, 1.09, 0.1, "lower", false},
		{1, 1.11, 0.1, "lower", true},
		{1, 0.5, 0.1, "lower", false},
		{1, 0.91, 0.1, "higher", false},
		{1, 0.89, 0.1, "higher", true},
		{1, 2, 0.1, "higher", false},
		{100, 102.5, 0.02, "lower", true},
	}
	for _, tt := range tests {
		if got := worse(tt.base, tt.change, tt.bound, tt.better); got != tt.want {
			t.Errorf("worse(%g, %g, %g, %s) = %v, want %v", tt.base, tt.change, tt.bound, tt.better, got, tt.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	tests := []struct {
		name         string
		base, change []float64
		better       string
		want         string
	}{
		{"faster on every pair", base, scaled(base, 0.8), "lower", verdictGain},
		{"higher-is-better gain", base, scaled(base, 1.2), "higher", verdictGain},
		{"slower beyond the bound", base, scaled(base, 1.2), "lower", verdictRegression},
		{"within the bound", base, scaled(base, 1.02), "lower", verdictUnchanged},
		{"spread wider than the bound", noisy, scaled(noisy, 1.01), "lower", verdictUnresolved},
		{"wide spread but every change run better", noisy, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.55}, "lower", verdictGain},
		{"no runs", nil, nil, "lower", verdictUnresolved},
	}
	for _, tt := range tests {
		if got := compareRuns(tt.base, tt.change, 0.1, tt.better); got.Verdict != tt.want {
			t.Errorf("%s: verdict %q (%+v), want %q", tt.name, got.Verdict, got, tt.want)
		}
	}
	// A gain needs nine tenths of the pairs: eight wins in ten is not one.
	change := scaled(base, 0.8)
	change[0], change[1] = 2, 2
	if got := compareRuns(base, change, 0.5, "lower"); got.Wins != 8 || got.Verdict == verdictGain {
		t.Errorf("8 wins in 10: %+v, want no gain", got)
	}
}
