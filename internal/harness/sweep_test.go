package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/vec"
)

func sweepGrid(lo, hi float64, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return ps
}

func requireIdentical(t *testing.T, tag string, a, b []ThresholdPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].P != b[i].P {
			t.Fatalf("%s: point %d: p %g vs %g", tag, i, a[i].P, b[i].P)
		}
		for k := range a[i].Gamma {
			if a[i].Gamma[k] != b[i].Gamma[k] {
				t.Fatalf("%s: point %d class %d: %v vs %v (not bit-identical)",
					tag, i, k, a[i].Gamma[k], b[i].Gamma[k])
			}
		}
	}
}

// The determinism contract of the batch engine: a sweep's results are
// bit-identical at every worker count, cold or warm.
func TestThresholdSweepFullBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	ps := sweepGrid(0.005, 0.12, 11)
	for _, warm := range []bool{false, true} {
		ref, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: warm})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 32} {
			got, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: workers, WarmStart: warm})
			if err != nil {
				t.Fatalf("workers=%d warm=%v: %v", workers, warm, err)
			}
			requireIdentical(t, "full sweep", ref, got)
		}
	}
}

func TestThresholdSweepOptsBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := sweepGrid(0.002, 0.09, 17)
	for _, warm := range []bool{false, true} {
		ref, stats, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: 1, WarmStart: warm})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Iterations) != len(ps) {
			t.Fatalf("stats cover %d of %d points", len(stats.Iterations), len(ps))
		}
		for _, workers := range []int{2, 5, 16} {
			got, _, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: workers, WarmStart: warm})
			if err != nil {
				t.Fatalf("workers=%d warm=%v: %v", workers, warm, err)
			}
			requireIdentical(t, "reduced sweep", ref, got)
		}
	}
}

// Warm-started solves must converge to the same eigenpair as cold ones —
// within tolerance, point by point — while saving iterations overall.
func TestWarmStartMatchesColdWithinTolerance(t *testing.T) {
	const nu = 9
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	// A monotone grid toward the threshold, where continuation pays off.
	ps := sweepGrid(0.01, 0.09, 12)
	cold, coldStats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: true, ChainLen: len(ps)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		for k := range cold[i].Gamma {
			if d := math.Abs(cold[i].Gamma[k] - warm[i].Gamma[k]); d > 1e-8 {
				t.Errorf("p=%g class %d: |cold−warm| = %g", ps[i], k, d)
			}
		}
	}
	if w, c := warmStats.TotalIterations(), coldStats.TotalIterations(); w >= c {
		t.Errorf("warm sweep took %d iterations, cold took %d — continuation saved nothing", w, c)
	}
	if countWarm(warmStats) != len(ps)-1 {
		t.Errorf("%d of %d points warm-started, want %d", countWarm(warmStats), len(ps), len(ps)-1)
	}
	if countWarm(coldStats) != 0 {
		t.Errorf("cold sweep reports %d warm points", countWarm(coldStats))
	}
}

// A power sweep runs each point through core.AdaptiveSolve, and must be
// bit-identical to a plain core.PowerIteration chain: one PowerWork reused
// across points, Shift = ConservativeShift, each warm start the Lagrange
// extrapolation at p through the chain's last k ≤ 4 converged
// concentration vectors, k picked by the documented order rule, here
// formed from copies of those vectors rather than the rotating history.
// Six-point chains reach the cubic. Power points report no prediction and
// no probe.
func TestPowerSweepMatchesPowerIterationChain(t *testing.T) {
	const nu = 7
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.02)
	ps := sweepGrid(0.01, 0.08, 11)
	const chainLen = 6
	for _, warm := range []bool{false, true} {
		baseOp, err := core.NewFmmpOperator(q, l, core.Right, nil)
		if err != nil {
			t.Fatal(err)
		}
		tol := core.DefaultTolerance(l)
		work := core.NewPowerWork(q.Dim())
		want := make([]ThresholdPoint, len(ps))
		wantIters := make([]int, len(ps))
		for lo := 0; lo < len(ps); lo += chainLen {
			var conv [][]float64 // the chain's converged vectors, newest first
			for i := lo; i < min(lo+chainLen, len(ps)); i++ {
				qp := mutation.MustUniform(nu, ps[i])
				op, err := baseOp.WithProcess(qp)
				if err != nil {
					t.Fatal(err)
				}
				start := baseOp.FitnessStart()
				if warm && len(conv) > 0 {
					k := fitNodes(ps[lo:i], conv)
					start = extrapolated(ps[i], ps[i-k:i], conv)
				}
				res, err := core.PowerIteration(op, core.PowerOptions{
					Tol: tol, Start: start, Shift: core.ConservativeShift(qp, l), Work: work,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := core.Concentrations(res.Vector); err != nil {
					t.Fatal(err)
				}
				gamma, err := core.ClassConcentrations(nu, res.Vector)
				if err != nil {
					t.Fatal(err)
				}
				want[i], wantIters[i] = ThresholdPoint{P: ps[i], Gamma: gamma}, res.Iterations
				conv = append([][]float64{append([]float64(nil), res.Vector...)}, conv...)
			}
		}
		for _, workers := range []int{1, 2} {
			got, stats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: workers, WarmStart: warm, ChainLen: chainLen})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "power sweep", want, got)
			for i := range ps {
				if stats.Iterations[i] != wantIters[i] || stats.Methods[i] != "power" || stats.Predicted[i] != 0 || stats.Probe[i] != 0 {
					t.Fatalf("warm=%v workers=%d point %d: %d iterations (%s, predicted %d, probe %d), PowerIteration %d",
						warm, workers, i, stats.Iterations[i], stats.Methods[i], stats.Predicted[i], stats.Probe[i], wantIters[i])
				}
			}
		}
	}
}

// plainWarmIterations runs the full-space sweep's chain loop with the
// plain warm start — each warm point seeded with the previous point's
// concentrations as they are, the engine before extrapolated starts — and
// returns its total matvecs.
func plainWarmIterations(t *testing.T, q *mutation.Process, l landscape.Landscape, ps []float64, chainLen int, method core.SolveMethod) int {
	t.Helper()
	baseR, err := core.NewFmmpOperator(q, l, core.Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseS, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := core.NewAdaptiveWork(q.Dim())
	total := 0
	for lo := 0; lo < len(ps); lo += chainLen {
		var state core.MethodState
		start := baseR.FitnessStart()
		for i := lo; i < min(lo+chainLen, len(ps)); i++ {
			qp := mutation.MustUniform(l.ChainLen(), ps[i])
			opR, _ := baseR.WithProcess(qp)
			opS, _ := baseS.WithProcess(qp)
			res, err := core.AdaptiveSolve(opR, opS, core.AdaptiveOptions{
				Method: method, Tol: core.DefaultTolerance(l), PowerShift: core.ConservativeShift(qp, l),
				Start: start, Work: work, State: &state,
			})
			if err != nil {
				t.Fatalf("p = %g: %v", ps[i], err)
			}
			if err := core.Concentrations(res.Vector); err != nil {
				t.Fatal(err)
			}
			total += res.Iterations
			start = res.Vector
		}
	}
	return total
}

// Extrapolated warm starts keep the sweep contract. A ν=10 warm power sweep
// and a warm auto sweep are bit-identical at 1, 2 and 3 workers, and each
// chain's points equal a sweep of that chain's grid alone: the start history
// resets at every chain head. Every Γ stays within 1e-9 of a cold sweep, and
// the sweeps cost fewer matvecs than with the plain warm start.
func TestExtrapolatedSweepDeterministicAndCheaper(t *testing.T) {
	const nu, chainLen = 10, 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	for _, tc := range []struct {
		method core.SolveMethod
		ps     []float64
	}{
		{core.SolvePower, sweepGrid(0.2*pc, 0.9*pc, 20)},
		{core.SolveAuto, sweepGrid(0.3*pc, 1.1*pc, 20)},
	} {
		opts := SweepOptions{Workers: 1, WarmStart: true, ChainLen: chainLen, Method: tc.method}
		ref, stats, err := ThresholdSweepFullOpts(q, l, tc.ps, opts)
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		for _, workers := range []int{2, 3} {
			o := opts
			o.Workers = workers
			got, gstats, err := ThresholdSweepFullOpts(q, l, tc.ps, o)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", tc.method, workers, err)
			}
			requireIdentical(t, fmt.Sprintf("%v sweep, %d workers", tc.method, workers), ref, got)
			for i := range tc.ps {
				if stats.Iterations[i] != gstats.Iterations[i] || stats.Methods[i] != gstats.Methods[i] {
					t.Fatalf("%v workers=%d point %d: %d matvecs (%s), %d (%s) on one worker", tc.method, workers, i,
						gstats.Iterations[i], gstats.Methods[i], stats.Iterations[i], stats.Methods[i])
				}
			}
		}
		for lo := 0; lo < len(tc.ps); lo += chainLen {
			hi := min(lo+chainLen, len(tc.ps))
			alone, _, err := ThresholdSweepFullOpts(q, l, tc.ps[lo:hi], opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%v chain at %d", tc.method, lo), ref[lo:hi], alone)
		}
		cold, _, err := ThresholdSweepFullOpts(q, l, tc.ps, SweepOptions{Workers: 1, ChainLen: chainLen, Method: tc.method})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			for k := range cold[i].Gamma {
				if d := math.Abs(cold[i].Gamma[k] - ref[i].Gamma[k]); d > 1e-9 {
					t.Errorf("%v p=%g class %d: |cold − warm| = %g", tc.method, tc.ps[i], k, d)
				}
			}
		}
		plain := plainWarmIterations(t, q, l, tc.ps, chainLen, tc.method)
		if got := stats.TotalIterations(); got >= plain {
			t.Errorf("%v: extrapolated sweep took %d matvecs, plain warm start %d", tc.method, got, plain)
		} else {
			t.Logf("%v: %d matvecs, plain warm start %d", tc.method, got, plain)
		}
	}
}

// A long sweep under the default layout runs as eight chains, here of 25
// points, whose starts climb to the cubic fit: a 200-point ν=10 warm power
// sweep is bit-identical at 1, 2 and 3 workers, point by point in Γ and in
// matvecs, and its Γ₀ stays within 1e-9 of cold solves at five points.
func TestLongChainSweepDeterministic(t *testing.T) {
	const nu = 10
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	ps := sweepGrid(0.2*pc, 0.8*pc, 200)
	opts := SweepOptions{Workers: 1, WarmStart: true, Method: core.SolvePower}
	ref, stats, err := ThresholdSweepFullOpts(q, l, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chains != 8 || countWarm(stats) != len(ps)-8 {
		t.Fatalf("%d chains, %d warm points; want 8 chains of 25, %d warm points", stats.Chains, countWarm(stats), len(ps)-8)
	}
	for _, workers := range []int{2, 3} {
		o := opts
		o.Workers = workers
		got, gstats, err := ThresholdSweepFullOpts(q, l, ps, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdentical(t, fmt.Sprintf("%d workers", workers), ref, got)
		for i := range ps {
			if stats.Iterations[i] != gstats.Iterations[i] {
				t.Fatalf("workers=%d point %d: %d matvecs, %d on one worker", workers, i, gstats.Iterations[i], stats.Iterations[i])
			}
		}
	}
	idx := []int{0, 24, 25, 111, 199} // chain heads, tails and a mid-chain point
	sub := make([]float64, len(idx))
	for j, i := range idx {
		sub[j] = ps[i]
	}
	cold, _, err := ThresholdSweepFullOpts(q, l, sub, SweepOptions{Workers: 1, Method: core.SolvePower})
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range idx {
		if d := math.Abs(cold[j].Gamma[0] - ref[i].Gamma[0]); d > 1e-9 {
			t.Errorf("p = %g: |cold − warm| Γ₀ = %g", ps[i], d)
		}
	}
	t.Logf("%d matvecs over %d points", stats.TotalIterations(), len(ps))
}

// extrapolated is the documented extrapolated warm start at p, written
// out: the Lagrange weights of the nodes (oldest first), newest first, each
// Π_{m≠j} (p − x_m)/(x_j − x_m) with its factors in ascending m, and the
// sum Σⱼ ℓⱼ·conv[j] of products rounded one by one, in ascending j. The
// grids here have distinct nodes, so every weight is finite.
func extrapolated(p float64, nodes []float64, conv [][]float64) []float64 {
	k := len(nodes)
	x := make([]float64, k)
	for j := range x {
		x[j] = nodes[k-1-j]
	}
	l := make([]float64, k)
	for j := range l {
		l[j] = 1 // 1·f = f exactly, so the first factor enters unchanged
		for m := range x {
			if m != j {
				l[j] *= (p - x[m]) / (x[j] - x[m])
			}
		}
	}
	out := make([]float64, len(conv[0]))
	for i := range out {
		s := float64(l[0] * conv[0][i])
		for j := 1; j < k; j++ {
			s += float64(l[j] * conv[j][i])
		}
		out[i] = s
	}
	return out
}

// fitNodes is the documented order rule, written out: nodes are the chain's
// solved error rates (oldest first) and conv their converged vectors
// (newest first). With h = min(len(nodes)−1, 3), e_j is the squared error
// of the fit through conv[1 … j], evaluated at the newest node, against
// conv[0], each difference and square rounded as the start's products are.
// j* is the j of the smallest e_j, ties going to the lower j; the start
// then takes j*+1 nodes if j* = h and j* otherwise.
func fitNodes(nodes []float64, conv [][]float64) int {
	m := len(nodes) - 1
	h := min(m, 3)
	if h == 0 {
		return 1
	}
	best, bestErr := 1, math.Inf(1)
	for j := 1; j <= h; j++ {
		fit := extrapolated(nodes[m], nodes[m-j:m], conv[1:])
		var e float64
		for i, a := range conv[0] {
			d := a - fit[i]
			e += float64(d * d)
		}
		if e < bestErr {
			best, bestErr = j, e
		}
	}
	if best == h {
		return h + 1
	}
	return best
}

func TestLocateThresholdOptsMatchesBisection(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Different probe sequences may land on different points inside the
		// final bracket, but every answer is within tol of the transition.
		if math.Abs(got-want) > 2e-4 {
			t.Errorf("workers=%d: p_max = %g, bisection %g", workers, got, want)
		}
	}
	theory, err := TheoreticalThreshold(4, nu)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-theory)/theory > 0.25 {
		t.Errorf("located %g far from first-order theory %g", want, theory)
	}
}

func TestThresholdSweepFullOptsWithDevice(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	ps := sweepGrid(0.01, 0.06, 6)
	// The device's reduction tree has its own (deterministic) summation
	// order, so the bit-identity contract is per device configuration:
	// sweep-level concurrency must not change a single bit for a fixed
	// shared device.
	dev := device.New(4, device.WithGrain(16))
	ref, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: true, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: workers, WarmStart: true, Dev: dev})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "device sweep", ref, got)
	}
}

// The adaptive engine must honor the same determinism contract as the
// power path: with Method auto the gear selection, warm shifts, and
// results are chain-local, so sweeps stay bit-identical at every worker
// count — including across the critical window where the selector shifts
// gears.
func TestAdaptiveSweepBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 14
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	// A grid that crosses p_c. The cost rule keeps the wide-gap end
	// (0.3·p_c) on the power gear and runs Chebyshev through the window,
	// cold or warm, so the check covers both gears and the chain state
	// handed between them. (With the provable lower filter edge Chebyshev
	// already wins at 0.6·p_c: 59 matvecs cold, probe included, against
	// power's 87.)
	ps := sweepGrid(0.3*pc, 1.2*pc, 8)
	for _, warm := range []bool{false, true} {
		ref, stats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
			Workers: 1, WarmStart: warm, Method: core.SolveAuto,
		})
		if err != nil {
			t.Fatalf("warm=%v: %v", warm, err)
		}
		for i, m := range stats.Methods {
			if m == "" || stats.Predicted[i] <= 0 || stats.Probe[i] < 2 || stats.Probe[i] > 24 {
				t.Fatalf("warm=%v: point %d has method %q, predicted %d, probe %d", warm, i, m, stats.Predicted[i], stats.Probe[i])
			}
		}
		if counts := stats.MethodCounts(); stats.Methods[0] != "power" || counts["chebyshev"] == 0 {
			t.Errorf("warm=%v: gears %v, want power at 0.3·p_c and Chebyshev in the window", warm, stats.Methods)
		}
		for _, workers := range []int{2, 3} {
			got, gstats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
				Workers: workers, WarmStart: warm, Method: core.SolveAuto,
			})
			if err != nil {
				t.Fatalf("workers=%d warm=%v: %v", workers, warm, err)
			}
			requireIdentical(t, "adaptive sweep", ref, got)
			for i := range stats.Methods {
				if stats.Methods[i] != gstats.Methods[i] || stats.Predicted[i] != gstats.Predicted[i] || stats.Probe[i] != gstats.Probe[i] {
					t.Fatalf("workers=%d warm=%v: point %d method %q (predicted %d, probe %d) vs %q (%d, %d)", workers, warm, i,
						stats.Methods[i], stats.Predicted[i], stats.Probe[i], gstats.Methods[i], gstats.Predicted[i], gstats.Probe[i])
				}
			}
			if stats.Escalations != gstats.Escalations {
				t.Errorf("workers=%d warm=%v: escalations %d vs %d",
					workers, warm, stats.Escalations, gstats.Escalations)
			}
		}
	}
}

// The ν=17 critical grid at offset 0.628 of a grid step is the one
// bench/README.md reports failing (shift-invert ladder exhausted on the
// chain starting at 0.99655·p_c), which is why the benchmark keeps to other
// offsets. The sweep must complete and pass the benchmark's own checks:
// ΣΓ = 1 at every point and Γ₀ non-increasing in p.
func TestAdaptiveSweepCriticalOffsetRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("ν=17 critical sweep runs in long mode")
	}
	const nu, points, sigma, offset = 17, 32, 2.0, 0.628
	l, err := landscape.NewSinglePeak(nu, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(sigma, -1/float64(nu))
	step := (1.08 - 0.90) / float64(points-1)
	ps := make([]float64, points)
	for i := range ps {
		ps[i] = (0.90 + step*(float64(i)+offset)) * pc
	}
	pts, stats, err := ThresholdSweepFullOpts(mutation.MustUniform(nu, ps[0]), l, ps, SweepOptions{
		Workers: 2, WarmStart: true, Method: core.SolveAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		var sum float64
		for _, g := range pt.Gamma {
			sum += g
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("p = %g: ΣΓ = %.17g", pt.P, sum)
		}
		if i > 0 && pt.Gamma[0] > pts[i-1].Gamma[0]*(1+1e-9) {
			t.Errorf("Γ₀ rises from %.17g at p = %g to %.17g at p = %g", pts[i-1].Gamma[0], pts[i-1].P, pt.Gamma[0], pt.P)
		}
	}
	t.Logf("gears %v, %d matvecs, %d escalations", stats.MethodCounts(), stats.TotalIterations(), stats.Escalations)
}

// Inside the critical window the auto selector and a forced shift-invert
// sweep solve the same eigenproblem by (possibly) different routes; their
// concentration curves must agree to solver tolerance.
func TestAdaptiveSweepAutoMatchesForcedShiftInvert(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	ps := sweepGrid(0.95*pc, 1.02*pc, 5)
	auto, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
		Workers: 1, WarmStart: true, Method: core.SolveAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	forced, fstats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
		Workers: 1, WarmStart: true, Method: core.SolveShiftInvert,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range auto {
		for k := range auto[i].Gamma {
			if d := math.Abs(auto[i].Gamma[k] - forced[i].Gamma[k]); d > 1e-8 {
				t.Errorf("p=%g class %d: |auto−shiftinvert| = %g", ps[i], k, d)
			}
		}
	}
	for i, m := range fstats.Methods {
		if m != "shiftinvert" {
			t.Errorf("forced sweep point %d recorded method %q", i, m)
		}
	}
}

// The reduced sweep maps non-power methods onto the RQI/LU shift-invert
// path; its curves must match the dense power path to solver tolerance and
// stay bit-identical across worker counts.
func TestReducedSweepShiftInvertMatchesPower(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := sweepGrid(0.002, 0.09, 13)
	power, _, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: 1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	si, stats, err := ThresholdSweepOpts(l, ps, SweepOptions{
		Workers: 1, WarmStart: true, Method: core.SolveShiftInvert,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range power {
		for k := range power[i].Gamma {
			if d := math.Abs(power[i].Gamma[k] - si[i].Gamma[k]); d > 1e-9 {
				t.Errorf("p=%g class %d: |power−shiftinvert| = %g", ps[i], k, d)
			}
		}
	}
	for i, m := range stats.Methods {
		if m != "shiftinvert" {
			t.Errorf("point %d recorded method %q, want shiftinvert", i, m)
		}
	}
	for _, workers := range []int{2, 5} {
		got, _, err := ThresholdSweepOpts(l, ps, SweepOptions{
			Workers: workers, WarmStart: true, Method: core.SolveShiftInvert,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdentical(t, "reduced shift-invert sweep", si, got)
	}
}

// LocateThresholdOpts must find the same transition whichever reduced
// solver evaluates the order parameter.
func TestLocateThresholdMethodAgreement(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	power, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	si, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: 2, Method: core.SolveShiftInvert})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(power-si) > 2e-4 {
		t.Errorf("p_max: power %g vs shift-invert %g", power, si)
	}
}

func TestRunCriticalBenchShort(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness exercised in long mode")
	}
	// A small window crossing: ν = 12 keeps the test fast while still
	// exercising the grid layout, bit-identity check, and baseline capture.
	res, err := RunCriticalBench(CriticalBenchConfig{Nu: 12, Points: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Error("parallel adaptive sweep deviated from serial")
	}
	if len(res.Variants) != 3 {
		t.Fatalf("%d variants, want 3", len(res.Variants))
	}
	if len(res.Grid) != 5 {
		t.Fatalf("%d grid points, want 5", len(res.Grid))
	}
	for i, pt := range res.Grid {
		if pt.Method == "" {
			t.Errorf("grid point %d has no method", i)
		}
		if pt.Iterations <= 0 {
			t.Errorf("grid point %d has no iteration count", i)
		}
		if pt.Probe < 2 || pt.Probe > 24 || pt.Probe >= pt.Iterations {
			t.Errorf("grid point %d: probe %d of %d matvecs", i, pt.Probe, pt.Iterations)
		}
	}
	if res.Grid[0].FracPC >= 1 || res.Grid[len(res.Grid)-1].FracPC <= 1 {
		t.Errorf("grid [%.3f, %.3f]·p_c does not cross the threshold",
			res.Grid[0].FracPC, res.Grid[len(res.Grid)-1].FracPC)
	}
	// The probe column comes last, so readers keyed on the earlier columns
	// (CI greps the header up to predicted) keep working.
	var sb strings.Builder
	if err := res.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\np\tfrac_pc\tmethod\titerations\tpredicted\twarm\tgamma0\tprobe\n") {
		t.Errorf("point header missing or reordered:\n%s", sb.String())
	}

	// Workers 0 means every core the process may use, in the config and in
	// the parallel variant's record.
	res, err = RunCriticalBench(CriticalBenchConfig{Nu: 8, Points: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); res.Workers != want || res.Variants[1].Workers != want {
		t.Errorf("Workers 0 recorded %d (parallel variant %d), want GOMAXPROCS %d",
			res.Workers, res.Variants[1].Workers, want)
	}
}

// No committed benchmark record may claim a variant with more workers than
// the gomaxprocs of the host that recorded it: such a "parallel" timing
// measures oversubscription, not a speedup.
func TestCommittedBenchWorkersWithinHost(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed results/BENCH_*.json")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Result struct {
				Host     obs.Host `json:"host"`
				Variants []struct {
					Name    string `json:"name"`
					Workers int    `json:"workers"`
				} `json:"variants"`
			} `json:"result"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		host := doc.Result.Host.GOMAXPROCS
		if host <= 0 {
			t.Errorf("%s: no host gomaxprocs recorded", f)
		}
		for _, v := range doc.Result.Variants {
			if v.Workers > host {
				t.Errorf("%s: variant %s claims %d workers on a host with gomaxprocs=%d", f, v.Name, v.Workers, host)
			}
		}
	}
}

// countWarm counts the warm-started points of a sweep.
func countWarm(s *SweepStats) int {
	n := 0
	for _, w := range s.Warm {
		if w {
			n++
		}
	}
	return n
}

// TestSweepBitIdenticalAcrossKernelTiers: CI's trace comparisons see only
// the default kernel tier and QS_NOAVX2=1, so this switches the tier in
// process instead. A warm ν = 10 full-space sweep with power, and one with
// auto across the threshold (power, then Chebyshev), must give byte-identical ThresholdPoints and
// the same per-point cost and gear at every tier the host has.
func TestSweepBitIdenticalAcrossKernelTiers(t *testing.T) {
	const nu = 10
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	was := vec.SetTier(vec.TierAVX512)
	defer vec.SetTier(was)
	tiers := vec.Tiers()
	grids := map[core.SolveMethod][]float64{
		core.SolvePower: sweepGrid(0.2*pc, 0.8*pc, 16),
		core.SolveAuto:  sweepGrid(0.3*pc, 1.1*pc, 16),
	}
	for method, ps := range grids {
		var ref []ThresholdPoint
		var refStats *SweepStats
		for _, tier := range tiers {
			vec.SetTier(tier)
			pts, stats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: true, Method: method})
			if err != nil {
				t.Fatalf("%v at %v: %v", method, tier, err)
			}
			if ref == nil {
				ref, refStats = pts, stats
				continue
			}
			for i := range ref {
				for k := range ref[i].Gamma {
					if math.Float64bits(pts[i].Gamma[k]) != math.Float64bits(ref[i].Gamma[k]) {
						t.Fatalf("%v: point %d class %d is %v at %v, %v at %v",
							method, i, k, pts[i].Gamma[k], tier, ref[i].Gamma[k], tiers[0])
					}
				}
				if stats.Iterations[i] != refStats.Iterations[i] || stats.Methods[i] != refStats.Methods[i] {
					t.Fatalf("%v: point %d costs %d matvecs (%s) at %v, %d (%s) at %v", method, i,
						stats.Iterations[i], stats.Methods[i], tier, refStats.Iterations[i], refStats.Methods[i], tiers[0])
				}
			}
		}
	}
}
