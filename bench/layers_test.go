package main

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// The traced run times the eigensolve through countingOp; that must not change
// what the solver computes.
func TestCountingOpIsPassive(t *testing.T) {
	const nu = 12
	l, err := landscape.NewRandom(nu, 5, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mutation.NewUniform(nu, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []*device.Device{nil, device.New(solverWorkers)} {
		op, err := core.NewFmmpOperator(q, l, core.Right, dev)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := core.PowerIteration(op, powerOptions(q, l, dev))
		if err != nil {
			t.Fatal(err)
		}
		c := &countingOp{op: op}
		counted, err := core.PowerIteration(c, powerOptions(q, l, dev))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(bare.Lambda) != math.Float64bits(counted.Lambda) || bare.Iterations != counted.Iterations {
			t.Fatalf("dev %v: counted solve λ = %v after %d iterations, bare λ = %v after %d",
				dev, counted.Lambda, counted.Iterations, bare.Lambda, bare.Iterations)
		}
		for i := range bare.Vector {
			if math.Float64bits(bare.Vector[i]) != math.Float64bits(counted.Vector[i]) {
				t.Fatalf("dev %v: vectors differ at %d: %v vs %v", dev, i, bare.Vector[i], counted.Vector[i])
			}
		}
		if c.applies != counted.Iterations {
			t.Errorf("dev %v: counted %d applications, the solver reports %d", dev, c.applies, counted.Iterations)
		}
	}
}

func planDescs(t *testing.T, w *workload, seed uint64) []string {
	t.Helper()
	pl, err := w.build(newRand(seed, w.name), false)
	if err != nil {
		t.Fatal(err)
	}
	descs := []string{pl.warm.desc}
	for _, u := range pl.cycle {
		descs = append(descs, u.desc)
	}
	return descs
}

// Every generated input is a function of the seed alone.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := planDescs(t, w, 1), planDescs(t, w, 1)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs on two builds", w.name)
		}
		if c := planDescs(t, w, 2); slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}
