// Distributed-memory solving: the direction the paper's conclusions name
// as future work ("the main limiting factor … is not any more the runtime,
// but the memory requirements"). The cluster package partitions the state
// vector across P simulated nodes, each owning one contiguous block; Fmmp's
// butterfly needs exactly log₂P block exchanges per matvec (a hypercube
// pattern), and core's power iteration drives the cluster like any other
// operator, with two allreduces per step and one for the start.
//
// The example verifies the distributed answer against the shared-memory
// solver, requires it to be bit-identical at every node count, and prints
// the exact communication bill an MPI port would pay.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math"
	"math/bits"

	quasispecies "repro"
	"repro/cluster"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

func main() {
	const nu = 16 // 65536 states, instant at any node count
	const p = 0.01

	land, err := landscape.NewRandom(nu, 5, 1, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Shared-memory reference through the public facade.
	mut, err := quasispecies.UniformMutation(nu, p)
	if err != nil {
		log.Fatal(err)
	}
	facadeLand, err := quasispecies.RandomLandscape(nu, 5, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	model, err := quasispecies.New(mut, facadeLand, quasispecies.WithMethod(quasispecies.MethodFmmp))
	if err != nil {
		log.Fatal(err)
	}
	ref, err := model.Solve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared-memory reference: λ = %.12f in %d iterations\n\n", ref.Lambda, ref.Iterations)

	q, err := mutation.NewUniform(nu, p)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.PowerOptions{
		Tol:   core.DefaultTolerance(land),
		Shift: core.ConservativeShift(q, land),
		Start: core.FitnessStart(land),
	}
	var first core.PowerResult
	fmt.Println("  P   λ (distributed)      matvec bytes   total MB   messages   allreduces")
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		c, err := cluster.NewCluster(nodes, p, land)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.PowerIteration(c, opts)
		if err != nil {
			log.Fatal(err)
		}
		if math.Abs(res.Lambda-ref.Lambda) > 1e-9 {
			log.Fatalf("P=%d: distributed λ %.12f disagrees with reference %.12f",
				nodes, res.Lambda, ref.Lambda)
		}
		if nodes == 1 {
			first = res
		} else if res.Lambda != first.Lambda || res.Iterations != first.Iterations {
			log.Fatalf("P=%d: λ %.17g in %d iterations, P=1 gave %.17g in %d",
				nodes, res.Lambda, res.Iterations, first.Lambda, first.Iterations)
		}
		st := c.Stats()
		fmt.Printf("  %2d  %.12f   %12d   %8.2f   %8d   %10d\n",
			nodes, res.Lambda, c.ExpectedMatvecBytes(),
			float64(st.Bytes)/(1<<20), st.Messages, 1+2*res.Iterations)
	}

	fmt.Println("\nper-matvec communication is exactly 8·N·log₂P bytes — the butterfly's")
	fmt.Println("hypercube exchange — while each node stores only N/P + O(1) floats:")
	fmt.Println("memory per node shrinks linearly in P at logarithmic communication cost.")
	for _, nodes := range []int{2, 8, 64, 1024} {
		nuBig := 34 // a 2^34 problem: 128 GiB of state, beyond one machine
		perNode := float64(8*(int64(1)<<uint(nuBig))/int64(nodes)) / (1 << 30)
		comm := float64(8*(int64(1)<<uint(nuBig))*int64(bits.TrailingZeros(uint(nodes)))) / (1 << 30)
		fmt.Printf("  ν=%d on P=%4d nodes: %7.2f GiB state per node, %6.1f GiB moved per matvec\n",
			nuBig, nodes, perNode, comm)
	}
}
