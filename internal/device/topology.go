package device

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file discovers the machine topology the pool pins against. Real NUMA
// machines expose their node → CPU map under /sys/devices/system/node; on
// single-socket boxes (and on non-Linux hosts, where the directory does not
// exist) detection degrades to one node holding every CPU, and node-keyed
// worker pinning collapses to the per-P fallback without any special
// casing at the call sites.

// Topology is the detected node → CPU map of the host.
type Topology struct {
	// NodeCPUs[k] lists the CPU ids of NUMA node k, sorted ascending.
	// Always has at least one node; node 0 is never empty.
	NodeCPUs [][]int
}

// Nodes returns the number of NUMA nodes (≥ 1).
func (t *Topology) Nodes() int { return len(t.NodeCPUs) }

// NodeOf maps worker w of a pool of size total onto a node: workers are
// split into contiguous blocks, one block per node, so neighbouring workers
// (which claim neighbouring chunk parts under the sticky dispatch) share a
// node and its last-level cache.
func (t *Topology) NodeOf(w, total int) int {
	n := len(t.NodeCPUs)
	if n <= 1 || total <= 0 {
		return 0
	}
	if w < 0 {
		w = 0
	}
	node := w * n / total
	if node >= n {
		node = n - 1
	}
	return node
}

var topo struct {
	once sync.Once
	t    Topology
}

// Topo returns the host topology, detected once per process.
func Topo() *Topology {
	topo.once.Do(func() { topo.t = detectTopology("/sys/devices/system/node") })
	return &topo.t
}

// detectTopology parses the node layout from a sysfs-style tree. Any error
// (missing directory, unreadable or malformed cpulist) yields the
// single-node fallback: topology awareness must never be a hard dependency.
func detectTopology(sysNodeDir string) Topology {
	fallback := Topology{NodeCPUs: [][]int{{0}}}
	entries, err := os.ReadDir(sysNodeDir)
	if err != nil {
		return fallback
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "node") {
			continue
		}
		id, err := strconv.Atoi(name[len("node"):])
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return fallback
	}
	sort.Ints(ids)
	t := Topology{}
	for _, id := range ids {
		raw, err := os.ReadFile(sysNodeDir + "/node" + strconv.Itoa(id) + "/cpulist")
		if err != nil {
			continue
		}
		cpus := parseCPUList(strings.TrimSpace(string(raw)))
		if len(cpus) > 0 {
			t.NodeCPUs = append(t.NodeCPUs, cpus)
		}
	}
	if len(t.NodeCPUs) == 0 {
		return fallback
	}
	return t
}

// parseCPUList parses the kernel's cpulist format: comma-separated entries
// that are either single CPUs ("7") or inclusive ranges ("0-3"). Returns nil
// on any malformed entry.
func parseCPUList(s string) []int {
	if s == "" {
		return nil
	}
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return nil
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		} else {
			c, err := strconv.Atoi(part)
			if err != nil {
				return nil
			}
			cpus = append(cpus, c)
		}
	}
	sort.Ints(cpus)
	return cpus
}
