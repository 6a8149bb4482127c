package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// ChebyshevIteration skips the per-step overflow norm of its recurrence when
// chebGrowthBound shows the guard cannot fire. These tests keep the loop
// with the per-step norm as the reference and require the same λ, residual,
// matvec and restart counts, iterate and error, bit for bit.

// perStepNormChebyshev is ChebyshevIteration with the overflow norm taken
// after every recurrence step and every step run as Apply + chebMap2 (never
// the fused three-term call), with the span and metrics hooks left out. It
// keeps the same budget reservation and residual-sized restart degrees.
func perStepNormChebyshev(op Operator, opts ChebyshevOptions) (ChebyshevResult, error) {
	n := op.Dim()
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-13
	}
	deg := opts.degree
	if deg <= 0 {
		deg = 30
	}
	maxMatVecs := opts.MaxMatVecs
	if maxMatVecs <= 0 {
		maxMatVecs = 500000
	}
	const stallRestarts = 6
	a := math.Max(opts.LowerEdge, 0)
	b := opts.UpperEdge
	dev := opts.Dev
	x, z, w := make([]float64, n), make([]float64, n), make([]float64, n)
	copy(x, opts.Start)
	dev.Scale(x, 1/dev.Norm2(x))
	center, halfWidth := (b+a)/2, (b-a)/2
	res := ChebyshevResult{Residual: math.Inf(1)}
	bestResidual := math.Inf(1)
	stalled := 0
	finish := func() {
		orientPositive(x)
		res.Vector = x
	}
	steps := deg
	for maxMatVecs-res.MatVecs >= 2 {
		res.Restarts++
		steps = min(steps, maxMatVecs-res.MatVecs-1)
		op.Apply(w, x)
		res.MatVecs++
		chebMap(dev, z, w, x, center, halfWidth)
		for j := 1; j < steps; j++ {
			op.Apply(w, z)
			res.MatVecs++
			chebMap2(dev, x, w, z, center, halfWidth)
			x, z = z, x
			if m := dev.Norm2(x); m > 1e100 || (m < 1e-100 && m > 0) {
				inv := 1 / m
				dev.Scale(x, inv)
				dev.Scale(z, inv)
			}
		}
		x, z = z, x
		nrm := dev.Norm2(x)
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			finish()
			return res, errors.New("breakdown")
		}
		dev.Scale(x, 1/nrm)
		op.Apply(w, x)
		res.MatVecs++
		res.Lambda = dev.Dot(x, w)
		res.Residual = dev.ResidualNorm2(w, x, res.Lambda)
		if res.Residual <= tol {
			res.Converged = true
			finish()
			return res, nil
		}
		if res.Residual < bestResidual*(1-1e-6) {
			bestResidual = res.Residual
			stalled = 0
		} else if stalled++; stallRestarts > 0 && stalled >= stallRestarts {
			finish()
			return res, ErrStagnated
		}
		// The residual-sized restart rule: ⌈ln(tol/r)/−acosh γ⌉ + 2 steps at
		// most, γ from the current Rayleigh quotient.
		steps = deg
		if gamma := (2*res.Lambda - a - b) / (b - a); gamma > 1 {
			steps = min(deg, int(math.Ceil(math.Log(tol/res.Residual)/-math.Acosh(gamma)))+2)
		}
	}
	finish()
	return res, ErrNoConvergence
}

// opaqueOp hides an operator's concrete type, so ChebyshevIteration finds
// no spectral bound for it and keeps the per-step norm.
type opaqueOp struct{ Operator }

func TestChebyshevSkippedStepNormBitIdentical(t *testing.T) {
	type variant struct {
		name     string
		op       func(opS *FmmpOperator) Operator
		edge     func(theta0, theta1 float64) float64
		opts     ChebyshevOptions
		provable bool // LowerEdge = ConservativeShift, as the adaptive gear runs
		skip     bool // whether the per-step norm is skipped
	}
	probeEdge := chebyshevEdge
	variants := []variant{
		{name: "default", edge: probeEdge, skip: true},
		{name: "budget", edge: probeEdge, opts: ChebyshevOptions{MaxMatVecs: 45}, skip: true},
		{name: "budget-40", edge: probeEdge, opts: ChebyshevOptions{MaxMatVecs: 40}, provable: true, skip: true},
		{name: "lower-edge", edge: probeEdge, opts: ChebyshevOptions{LowerEdge: 0.1}, skip: true},
		{name: "provable-lower-edge", edge: probeEdge, provable: true, skip: true},
		{name: "degree-7", edge: probeEdge, opts: ChebyshevOptions{degree: 7}, provable: true, skip: true},
		{name: "mis-set-edge", edge: func(t0, _ float64) float64 { return 1.01 * t0 }, skip: true},
		// T_300(g) overflows the rescale threshold: the per-step norm stays
		// and does rescale.
		{name: "degree-300", edge: probeEdge, opts: ChebyshevOptions{degree: 300}},
		{name: "opaque-operator", edge: probeEdge, op: func(opS *FmmpOperator) Operator { return opaqueOp{opS} }},
	}
	for _, nu := range []int{8, 12} {
		for _, sigma := range []float64{2, 10} {
			l, err := landscape.NewSinglePeak(nu, sigma, 1)
			if err != nil {
				t.Fatal(err)
			}
			pc := 1 - math.Pow(sigma, -1/float64(nu))
			for _, frac := range []float64{0.5, 0.9, 1.05} {
				for _, dev := range []*device.Device{nil, device.New(2, device.WithGrain(64))} {
					q := mutation.MustUniform(nu, frac*pc)
					opS, err := NewFmmpOperator(q, l, Symmetric, dev)
					if err != nil {
						t.Fatal(err)
					}
					theta0, theta1, err := RitzGap(opS, 24, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					start := opS.FitnessStart()
					for _, v := range variants {
						name := fmt.Sprintf("ν=%d σ=%g %.2f·p_c dev=%v %s", nu, sigma, frac, dev != nil, v.name)
						var op Operator = opS
						if v.op != nil {
							op = v.op(opS)
						}
						opts := v.opts
						opts.Tol, opts.UpperEdge, opts.Start, opts.Dev = 1e-12, v.edge(theta0, theta1), start, dev
						if v.provable {
							opts.LowerEdge = ConservativeShift(opS.Q, opS.F)
						}
						a := math.Max(opts.LowerEdge, 0)
						deg := opts.degree
						if deg == 0 {
							deg = defaultChebDegree
						}
						skipped := 2*chebGrowthBound(op, (opts.UpperEdge+a)/2, (opts.UpperEdge-a)/2, deg) < chebRescale
						if skipped != v.skip {
							t.Fatalf("%s: per-step norm skipped = %v, want %v", name, skipped, v.skip)
						}
						want, wantErr := perStepNormChebyshev(op, opts)
						opts.Work = NewChebyshevWork(1 << nu)
						got, gotErr := ChebyshevIteration(op, opts)
						if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
							t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
						}
						if !sameBits(got.Lambda, want.Lambda) || !sameBits(got.Residual, want.Residual) ||
							got.MatVecs != want.MatVecs || got.Restarts != want.Restarts || got.Converged != want.Converged {
							t.Fatalf("%s: (λ %v, r %v, %d matvecs, %d restarts), reference (λ %v, r %v, %d, %d)", name,
								got.Lambda, got.Residual, got.MatVecs, got.Restarts, want.Lambda, want.Residual, want.MatVecs, want.Restarts)
						}
						for i := range got.Vector {
							if !sameBits(got.Vector[i], want.Vector[i]) {
								t.Fatalf("%s: x[%d] = %v, reference %v", name, i, got.Vector[i], want.Vector[i])
							}
						}
					}
				}
			}
		}
	}
}

// Only the uniform-mutation Symmetric Fmmp operator has a growth bound.
func TestChebGrowthBoundScope(t *testing.T) {
	const nu = 6
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	uniform := mutation.MustUniform(nu, 0.05)
	factors := make([]mutation.Factor2, nu)
	for i := range factors {
		factors[i] = mutation.Factor2{A: 0.95, B: 0.1, C: 0.05, D: 0.9}
	}
	perSite, err := mutation.NewPerSite(factors)
	if err != nil {
		t.Fatal(err)
	}
	sym, _ := NewFmmpOperator(uniform, l, Symmetric, nil)
	right, _ := NewFmmpOperator(uniform, l, Right, nil)
	site, _ := NewFmmpOperator(perSite, l, Symmetric, nil)
	if b := chebGrowthBound(sym, 0.5, 0.5, 30); math.IsInf(b, 1) || b < 1 {
		t.Errorf("uniform Symmetric operator: bound %g, want finite ≥ 1", b)
	}
	for name, op := range map[string]Operator{"Right form": right, "per-site process": site, "opaque": opaqueOp{sym}} {
		if b := chebGrowthBound(op, 0.5, 0.5, 30); !math.IsInf(b, 1) {
			t.Errorf("%s: bound %g, want +Inf", name, b)
		}
	}
}
