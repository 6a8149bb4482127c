package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolating
// linearly between order statistics at rank p/100·(n−1). NaN when xs is
// empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile (0 < q < 1) of
// xs: the mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1−q))
// distribution. A single order statistic jumps when q falls between two
// groups of unlike values, which is what a cycle of unlike units produces;
// this estimate moves smoothly instead. NaN when xs is empty.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

func betaContinuedFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns Q1, Q2 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (its default "exclusive" method), the definition the
// benchmark's spread rule is stated in. NaN for fewer than two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// tailPercentiles are the candidates of the tail rule, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the rule "report the highest percentile that has at
// least ten samples beyond it": it returns that percentile for n samples, and
// false when even the median has fewer than ten samples above it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// worse reports whether change is worse than base by more than bound, a
// share of base, in the metric's direction ("lower" or "higher" is better).
func worse(base, change, bound float64, better string) bool {
	if better == "higher" {
		return change < base*(1-bound)
	}
	return change > base*(1+bound)
}

// Verdicts of compareRuns.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "no regression"
)

// comparison is the outcome of comparing paired runs of two commits on one
// metric.
type comparison struct {
	Pairs, Wins, Losses int
	BaseMedian          float64
	ChangeMedian        float64
	BaseIQR             float64
	Verdict             string
}

// compareRuns applies the benchmark's comparison rule to paired runs base[i]
// and change[i] of one metric: a gain needs the change to win at least nine
// tenths of the pairs (ties count for neither side) and its median to beat
// the base median by more than the base runs' interquartile range; a
// regression is a median worse than the base median by more than bound; a
// metric whose own spread exceeds bound is unresolved unless every change
// run beats every base run.
func compareRuns(base, change []float64, bound float64, better string) comparison {
	n := len(base)
	if len(change) < n {
		n = len(change)
	}
	c := comparison{Pairs: n}
	if n == 0 {
		c.Verdict = verdictUnresolved
		return c
	}
	base, change = base[:n], change[:n]
	sign := 1.0 // positive when change is better
	if better != "higher" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (change[i] - base[i]); {
		case d > 0:
			c.Wins++
		case d < 0:
			c.Losses++
		}
	}
	q1, q2, q3 := quartiles(base)
	if n < 2 {
		q1, q2, q3 = base[0], base[0], base[0]
	}
	c.BaseMedian, c.BaseIQR = q2, q3-q1
	c.ChangeMedian = median(change)
	gap := sign * (c.ChangeMedian - c.BaseMedian)
	switch {
	case 10*c.Wins >= 9*n && gap > c.BaseIQR:
		c.Verdict = verdictGain
	case worse(c.BaseMedian, c.ChangeMedian, bound, better):
		c.Verdict = verdictRegression
	case c.BaseIQR > bound*math.Abs(c.BaseMedian) && !allBetter(base, change, sign):
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

// allBetter reports whether every change run beats every base run.
func allBetter(base, change []float64, sign float64) bool {
	worstChange := math.Inf(1)
	for _, v := range change {
		worstChange = math.Min(worstChange, sign*v)
	}
	for _, v := range base {
		if sign*v >= worstChange {
			return false
		}
	}
	return true
}
