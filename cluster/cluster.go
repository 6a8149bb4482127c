// Package cluster implements the distributed-memory direction named in
// the paper's conclusions: "the main limiting factor in computationally
// solving the quasispecies model is not any more the runtime, but the
// memory requirements. Consequently, in the future we will focus on
// distributed memory approaches."
//
// A Cluster models P nodes (P a power of two) as the operator
// W = Q·F of a uniform mutation process over one N-vector, a
// core.Operator that core's eigensolvers drive like any other.
//
// Block ownership. Node r owns the contiguous block [r·N/P, (r+1)·N/P) of
// every vector Apply sees, and of the fitness diagonal. Apply runs the
// nodes as goroutines of one SPMD region; each reads and writes only its
// own block, and data crosses between nodes only through counted
// messages, whose payload is copied so no node reads another's memory.
//
// The butterfly structure of Fmmp maps onto this layout as it does for
// the distributed FFT. Q = Q_high ⊗ Q_low, so the ν − log₂P stages with
// stride < N/P are node-local: each node runs them on its block with the
// production kernel of a ν − log₂P bit process, the fitness pre-scale
// fused into its first pass. The log₂P stages with stride ≥ N/P pair each
// node with the partner whose rank differs in one bit, a hypercube
// exchange of one block per node per stage, updated with the stochastic
// butterfly's expression. Every element therefore goes through the
// operations of the serial kernel in the same order, so Apply is bit-for-bit
// the serial core.FmmpOperator (Right form) at every P, and so is a power
// solve on it.
//
// Traffic. One Apply sends P·log₂P messages of N/P floats, exactly
// 8·N·log₂P bytes (ExpectedMatvecBytes); Stats counts them. The reductions
// of a solve are not simulated, only counted by rule: a power step's two
// fused passes each need one allreduce (pass A reduces 2 scalars, the
// Rayleigh quotient and ‖t‖², and pass B 1, the residual), and normalizing
// the start needs one more, so core.PowerIteration makes 1 + 2·Iterations
// allreduces of recursive doubling over log₂P rounds.
package cluster

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/landscape"
	"repro/internal/mutation"
)

// Stats counts the simulated network traffic of a Cluster.
type Stats struct {
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// Bytes is the total payload volume in bytes.
	Bytes int64
	// CrossStages is the number of butterfly stages that required
	// communication.
	CrossStages int64
}

// Cluster is a simulated distributed-memory machine applying W = Q·F with
// each of its P nodes owning N/P contiguous entries. Like every
// core.Operator it must not be applied concurrently with itself.
type Cluster struct {
	nodes    int
	logNodes int
	n        int
	blockLen int
	p        float64

	local *mutation.Process // the ν − log₂P node-local stages
	fdiag []float64

	// mailbox[to][from] carries one block-sized message at a time.
	mailbox [][]chan []float64

	messages    atomic.Int64
	bytes       atomic.Int64
	crossStages atomic.Int64
}

// NewCluster builds a cluster of nodes ranks applying Q·F for the uniform
// process of rate p over the landscape l. nodes must be a power of two no
// larger than l.Dim().
func NewCluster(nodes int, p float64, l landscape.Landscape) (*Cluster, error) {
	n := l.Dim()
	if nodes < 1 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("cluster: node count %d is not a power of two", nodes)
	}
	if nodes > n {
		return nil, fmt.Errorf("cluster: more nodes (%d) than vector entries (%d)", nodes, n)
	}
	logNodes := bits.TrailingZeros(uint(nodes))
	local, err := mutation.NewUniform(l.ChainLen()-logNodes, p)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		nodes:    nodes,
		logNodes: logNodes,
		n:        n,
		blockLen: n / nodes,
		p:        p,
		local:    local,
		fdiag:    landscape.Materialize(l),
		mailbox:  make([][]chan []float64, nodes),
	}
	for to := range c.mailbox {
		c.mailbox[to] = make([]chan []float64, nodes)
		for from := range c.mailbox[to] {
			c.mailbox[to][from] = make(chan []float64, 1)
		}
	}
	return c, nil
}

// Dim returns N.
func (c *Cluster) Dim() int { return c.n }

// Stats returns a snapshot of the traffic counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Messages:    c.messages.Load(),
		Bytes:       c.bytes.Load(),
		CrossStages: c.crossStages.Load(),
	}
}

// ExpectedMatvecBytes returns the exact communication volume of one
// Apply: P nodes each send one block of N/P floats in each of the log₂P
// cross stages, i.e. 8·N·log₂P bytes.
func (c *Cluster) ExpectedMatvecBytes() int64 {
	return int64(8 * c.n * c.logNodes)
}

// Apply computes dst ← Q·F·src, each node on its own block: the local
// stages by the production kernel, then the log₂P cross stages as
// hypercube exchanges. dst may alias src.
func (c *Cluster) Apply(dst, src []float64) {
	if len(dst) != c.n || len(src) != c.n {
		panic(fmt.Sprintf("cluster: Apply lengths %d, %d, want %d", len(dst), len(src), c.n))
	}
	b := c.p
	c.runSPMD(func(rank int) {
		lo, hi := rank*c.blockLen, (rank+1)*c.blockLen
		blk := dst[lo:hi]
		c.local.ApplyFused(nil, blk, src[lo:hi], c.fdiag[lo:hi], mutation.Epilogue{})
		// Cross stage s has stride blockLen·2^s and pairs rank with
		// rank^2^s; the node whose bit is clear holds the pair's t1.
		for s := 0; s < c.logNodes; s++ {
			bit := 1 << s
			partner := rank ^ bit
			c.send(rank, partner, blk)
			other := c.recv(rank, partner)
			if rank&bit == 0 {
				for k, t1 := range blk {
					blk[k] = t1 + b*(other[k]-t1)
				}
			} else {
				for k, t2 := range blk {
					blk[k] = t2 - b*(t2-other[k])
				}
			}
		}
	})
	c.crossStages.Add(int64(c.logNodes))
}

// send delivers payload from rank `from` to rank `to`, counting traffic.
// The payload is copied so nodes never alias each other's memory.
func (c *Cluster) send(from, to int, payload []float64) {
	cp := make([]float64, len(payload))
	copy(cp, payload)
	c.messages.Add(1)
	c.bytes.Add(int64(8 * len(payload)))
	c.mailbox[to][from] <- cp
}

func (c *Cluster) recv(at, from int) []float64 {
	return <-c.mailbox[at][from]
}

// runSPMD executes body(rank) on one goroutine per node and waits for all
// of them — one SPMD region.
func (c *Cluster) runSPMD(body func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(c.nodes)
	for r := 0; r < c.nodes; r++ {
		go func(rank int) {
			defer wg.Done()
			body(rank)
		}(r)
	}
	wg.Wait()
}
