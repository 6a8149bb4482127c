package obs

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// sysNodeDir is the sysfs tree the host record reads its NUMA node → CPU
// map from.
const sysNodeDir = "/sys/devices/system/node"

// readNUMANodes parses the node → CPU map of a sysfs-style tree: element k
// lists the CPU ids of the k-th node in numeric node order, sorted
// ascending. Nodes with a missing or malformed cpulist are skipped. Any
// other failure (missing directory — every non-Linux host — or no valid
// node) yields the single-node fallback [[0]], so the host record always
// has a node 0.
func readNUMANodes(dir string) [][]int {
	fallback := [][]int{{0}}
	entries, err := os.ReadDir(dir)
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
	sort.Ints(ids)
	var nodes [][]int
	for _, id := range ids {
		raw, err := os.ReadFile(dir + "/node" + strconv.Itoa(id) + "/cpulist")
		if err != nil {
			continue
		}
		if cpus := parseCPUList(strings.TrimSpace(string(raw))); len(cpus) > 0 {
			nodes = append(nodes, cpus)
		}
	}
	if len(nodes) == 0 {
		return fallback
	}
	return nodes
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
