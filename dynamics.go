package quasispecies

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ode"
)

// Trajectory integrates the full nonlinear replication–mutation ODE system
// (Eq. 1 of the paper) rather than jumping to the stationary distribution.

// EvolveOptions configures time integration of the model.
type EvolveOptions struct {
	// Tol is the adaptive local error tolerance; ≤ 0 selects the default
	// 1e-9. It must be finite.
	Tol float64
	// Snapshots, when > 0, records that many evenly spaced states.
	Snapshots int
}

// Trajectory is the result of Evolve: optional snapshots plus the final
// state.
type Trajectory struct {
	// Times are the snapshot times (including the final time).
	Times []float64
	// States holds the concentration distribution at each snapshot time.
	States [][]float64
	// Steps is the total number of accepted integrator steps.
	Steps int
}

// Final returns the last recorded state.
func (tr *Trajectory) Final() []float64 { return tr.States[len(tr.States)-1] }

// Evolve integrates the replicator–mutator dynamics from the initial
// distribution x0 (Σ = 1; nil selects the canonical x₀ = master-only
// start) over [0, t] and returns the trajectory. The horizon must be
// positive and finite, and opts.Tol finite.
func (mo *Model) Evolve(x0 []float64, t float64, opts EvolveOptions) (*Trajectory, error) {
	if !(t > 0) || math.IsInf(t, 1) {
		return nil, fmt.Errorf("%w: horizon t = %g must be positive and finite", ErrInvalidModel, t)
	}
	if math.IsNaN(opts.Tol) || math.IsInf(opts.Tol, 0) {
		return nil, fmt.Errorf("%w: tolerance %g must be finite", ErrInvalidModel, opts.Tol)
	}
	op, err := mo.fmmpOperator(core.Right)
	if err != nil {
		return nil, err
	}
	sys, err := ode.NewSystem(op, mo.land.l)
	if err != nil {
		return nil, err
	}
	x := make([]float64, mo.Dim())
	if x0 == nil {
		copy(x, ode.MasterStart(mo.Dim()))
	} else {
		if len(x0) != mo.Dim() {
			return nil, fmt.Errorf("%w: initial state length %d, want %d", ErrInvalidModel, len(x0), mo.Dim())
		}
		copy(x, x0)
	}

	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-9
	}
	snaps := opts.Snapshots
	if snaps < 1 {
		snaps = 1
	}
	tr := &Trajectory{}
	tPrev := 0.0
	for s := 1; s <= snaps; s++ {
		tNext := t * float64(s) / float64(snaps)
		steps, err := sys.IntegrateAdaptive(x, tPrev, tNext, ode.AdaptiveOptions{
			Tol: tol, Renormalize: true,
		})
		if err != nil {
			return nil, err
		}
		tr.Steps += steps
		state := make([]float64, len(x))
		copy(state, x)
		tr.Times = append(tr.Times, tNext)
		tr.States = append(tr.States, state)
		tPrev = tNext
	}
	return tr, nil
}

// MeanFitness returns Φ(x) = Σ fᵢ·xᵢ, the mean population fitness of a
// concentration distribution under the model's landscape. At the
// quasispecies fixed point Φ equals the dominant eigenvalue λ.
func (mo *Model) MeanFitness(x []float64) (float64, error) {
	if len(x) != mo.Dim() {
		return 0, fmt.Errorf("%w: state length %d, want %d", ErrInvalidModel, len(x), mo.Dim())
	}
	var phi float64
	for i, v := range x {
		phi += mo.land.l.At(uint64(i)) * v
	}
	return phi, nil
}
