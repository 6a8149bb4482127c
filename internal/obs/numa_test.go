package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// Fixture-driven tests for readNUMANodes: each case builds a sysfs-style
// node tree in a temp dir and checks the parsed node → CPU map. These run
// everywhere, so the parser's behaviour on multi-node, single-node and
// malformed layouts is pinned even when CI hosts are single-socket.

// writeSysfsNodes lays out dir/nodeK/cpulist files. A "" cpulist writes the
// node directory without a cpulist file (as sysfs does for memory-only
// nodes with the file elsewhere, or a truncated tree).
func writeSysfsNodes(t *testing.T, nodes map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, cpulist := range nodes {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if cpulist == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name, "cpulist"), []byte(cpulist), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func sameCPUs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReadNUMANodesMultiNode(t *testing.T) {
	// A two-socket box with interleaved cpulists (SMT siblings enumerated
	// after the physical cores, as real kernels do): 0-7,16-23 / 8-15,24-31.
	dir := writeSysfsNodes(t, map[string]string{
		"node0": "0-7,16-23\n",
		"node1": "8-15,24-31\n",
	})
	nodes := readNUMANodes(dir)
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(nodes))
	}
	want0 := []int{0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23}
	want1 := []int{8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31}
	if !sameCPUs(nodes[0], want0) || !sameCPUs(nodes[1], want1) {
		t.Fatalf("cpu map = %v", nodes)
	}
}

func TestReadNUMANodesNodeOrderIsNumeric(t *testing.T) {
	// Directory listings sort lexically ("node10" < "node2"); the parser
	// must order nodes numerically so NodeCPUs[k] is node k's list.
	tree := map[string]string{}
	for _, id := range []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"} {
		tree["node"+id] = id + "\n"
	}
	dir := writeSysfsNodes(t, tree)
	nodes := readNUMANodes(dir)
	if len(nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(nodes))
	}
	for k := 0; k < 12; k++ {
		if !sameCPUs(nodes[k], []int{k}) {
			t.Fatalf("nodes[%d] = %v, want [%d]", k, nodes[k], k)
		}
	}
}

func TestReadNUMANodesSingleNode(t *testing.T) {
	// The common laptop/VM layout: one node holding every CPU. Also checks
	// that non-node sysfs entries (has_cpu, possible, online…) are ignored.
	dir := writeSysfsNodes(t, map[string]string{"node0": "0-15\n"})
	for _, extra := range []string{"has_cpu", "possible", "online"} {
		if err := os.WriteFile(filepath.Join(dir, extra), []byte("0-15\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	nodes := readNUMANodes(dir)
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(nodes))
	}
	if len(nodes[0]) != 16 {
		t.Fatalf("node0 cpus = %v, want 16 CPUs", nodes[0])
	}
}

func TestReadNUMANodesMalformed(t *testing.T) {
	cases := []struct {
		name      string
		nodes     map[string]string
		wantNodes int
		// wantCPUs is checked against nodes[0] when non-nil.
		wantCPUs []int
	}{
		{
			// A node with a garbled cpulist is skipped; the good one stays.
			name:      "one garbled cpulist",
			nodes:     map[string]string{"node0": "0-xyz\n", "node1": "4-7\n"},
			wantNodes: 1,
			wantCPUs:  []int{4, 5, 6, 7},
		},
		{
			// Reversed range is malformed per the kernel format.
			name:      "reversed range",
			nodes:     map[string]string{"node0": "3-1\n", "node1": "0-1\n"},
			wantNodes: 1,
			wantCPUs:  []int{0, 1},
		},
		{
			// Every cpulist unreadable/garbled → single-node fallback, so
			// the host record still has its node 0.
			name:      "all garbled",
			nodes:     map[string]string{"node0": ",,,\n", "node1": "a-b\n"},
			wantNodes: 1,
			wantCPUs:  []int{0},
		},
		{
			// node directory without a cpulist file (memory-only node or
			// truncated tree) is skipped.
			name:      "missing cpulist file",
			nodes:     map[string]string{"node0": "", "node1": "2-3\n"},
			wantNodes: 1,
			wantCPUs:  []int{2, 3},
		},
		{
			// Empty cpulist (trailing newline only) yields no CPUs → skip.
			name:      "empty cpulist",
			nodes:     map[string]string{"node0": "\n", "node1": "0-1\n"},
			wantNodes: 1,
			wantCPUs:  []int{0, 1},
		},
		{
			// Entries that are not nodeN ("nodeX", "nodes") are ignored;
			// nothing valid remains → fallback.
			name:      "no node entries",
			nodes:     map[string]string{"nodeX": "0-3\n", "nodes": "0-3\n"},
			wantNodes: 1,
			wantCPUs:  []int{0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nodes := readNUMANodes(writeSysfsNodes(t, c.nodes))
			if len(nodes) != c.wantNodes {
				t.Fatalf("nodes = %d, want %d (map %v)", len(nodes), c.wantNodes, nodes)
			}
			if c.wantCPUs != nil && !sameCPUs(nodes[0], c.wantCPUs) {
				t.Fatalf("nodes[0] = %v, want %v", nodes[0], c.wantCPUs)
			}
		})
	}
}

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"0", []int{0}},
		{"0-3", []int{0, 1, 2, 3}},
		{"0-1,4-5", []int{0, 1, 4, 5}},
		{"7,3", []int{3, 7}},
		{"", nil},
		{"x", nil},
		{"3-1", nil},
	}
	for _, c := range cases {
		got := parseCPUList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("parseCPUList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseCPUList(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestReadNUMANodesFromFakeSysfs(t *testing.T) {
	dir := t.TempDir()
	for node, cpulist := range map[string]string{"node0": "0-1", "node1": "2-3"} {
		if err := os.MkdirAll(filepath.Join(dir, node), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, node, "cpulist"), []byte(cpulist+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	nodes := readNUMANodes(dir)
	if len(nodes) != 2 {
		t.Fatalf("detected %d nodes, want 2", len(nodes))
	}
	if len(nodes[0]) != 2 || nodes[0][0] != 0 || nodes[1][0] != 2 {
		t.Errorf("wrong cpu map: %v", nodes)
	}
}

func TestReadNUMANodesFallback(t *testing.T) {
	nodes := readNUMANodes("/definitely/not/a/sysfs/path")
	if len(nodes) != 1 {
		t.Fatalf("missing sysfs must fall back to 1 node, got %d", len(nodes))
	}
	if !sameCPUs(nodes[0], []int{0}) {
		t.Errorf("fallback node 0 = %v, want [0]", nodes[0])
	}
}
