package device

import (
	"os"
	"path/filepath"
	"testing"
)

func TestAlignedFloat64sAlignmentAndShape(t *testing.T) {
	for _, n := range []int{1, 7, 8, 63, 64, 1000, 1 << 12, hugeAdviseMin} {
		v := AlignedFloat64s(n)
		if len(v) != n || cap(v) != n {
			t.Fatalf("n=%d: len=%d cap=%d, want both %d", n, len(v), cap(v), n)
		}
		if !IsAligned(v) {
			t.Fatalf("n=%d: first element not %d-byte aligned", n, CacheLine)
		}
		for i, x := range v {
			if x != 0 {
				t.Fatalf("n=%d: element %d = %v, want zeroed", n, i, x)
			}
		}
	}
	if AlignedFloat64s(0) != nil || AlignedFloat64s(-3) != nil {
		t.Error("non-positive n must return nil")
	}
	if !IsAligned(nil) {
		t.Error("empty slice counts as aligned")
	}
}

func TestAllocVectorFirstTouchVariants(t *testing.T) {
	n := 1 << 15
	serial := AllocVector(n)
	d := New(4, WithGrain(1024))
	pooled := d.AllocVector(n)
	if len(serial) != n || len(pooled) != n {
		t.Fatal("wrong lengths")
	}
	if !IsAligned(serial) || !IsAligned(pooled) {
		t.Fatal("AllocVector results must be aligned")
	}
	for i := 0; i < n; i++ {
		if serial[i] != 0 || pooled[i] != 0 {
			t.Fatalf("element %d not zeroed", i)
		}
	}
	if got := d.AllocVector(0); len(got) != 0 {
		t.Error("n=0 must return an empty vector")
	}
}

func TestArenaBumpRespectsAlignmentAndIsolation(t *testing.T) {
	a := NewArena(1 << 10)
	v1 := a.Alloc(100)
	v2 := a.Alloc(33)
	if !IsAligned(v1) || !IsAligned(v2) {
		t.Fatal("arena grabs must be cache-line aligned")
	}
	if cap(v1) != 100 || cap(v2) != 33 {
		t.Fatalf("grabs must be capacity-clamped: cap(v1)=%d cap(v2)=%d", cap(v1), cap(v2))
	}
	for i := range v1 {
		v1[i] = 1
	}
	for _, x := range v2 {
		if x != 0 {
			t.Fatal("writes to one grab leaked into the next")
		}
	}
}

func TestArenaGrowsAndHandlesOversizedGrabs(t *testing.T) {
	a := NewArena(256)
	big := a.Alloc(1000) // dedicated slab
	small := a.Alloc(10)
	if len(big) != 1000 || len(small) != 10 {
		t.Fatal("wrong grab lengths")
	}
	if !IsAligned(big) || !IsAligned(small) {
		t.Fatal("grabs must stay aligned across slab growth")
	}
	if a.Footprint() < 1010 {
		t.Errorf("footprint %d too small for grabs issued", a.Footprint())
	}
}

func TestArenaResetReusesSlabsWithoutGrowth(t *testing.T) {
	a := NewArena(1 << 10)
	for i := 0; i < 4; i++ {
		a.Alloc(500)
	}
	grown := a.Footprint()
	for round := 0; round < 3; round++ {
		a.Reset()
		for i := 0; i < 4; i++ {
			if v := a.Alloc(500); len(v) != 500 {
				t.Fatal("wrong length after reset")
			}
		}
		if a.Footprint() != grown {
			t.Fatalf("round %d: footprint grew from %d to %d despite reset", round, grown, a.Footprint())
		}
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

func TestDetectTopologyFromFakeSysfs(t *testing.T) {
	dir := t.TempDir()
	for node, cpulist := range map[string]string{"node0": "0-1", "node1": "2-3"} {
		if err := os.MkdirAll(filepath.Join(dir, node), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, node, "cpulist"), []byte(cpulist+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	topo := detectTopology(dir)
	if topo.Nodes() != 2 {
		t.Fatalf("detected %d nodes, want 2", topo.Nodes())
	}
	if len(topo.NodeCPUs[0]) != 2 || topo.NodeCPUs[0][0] != 0 || topo.NodeCPUs[1][0] != 2 {
		t.Errorf("wrong cpu map: %v", topo.NodeCPUs)
	}
	// Workers split into contiguous per-node blocks.
	if topo.NodeOf(0, 4) != 0 || topo.NodeOf(1, 4) != 0 || topo.NodeOf(2, 4) != 1 || topo.NodeOf(3, 4) != 1 {
		t.Error("NodeOf must assign contiguous worker blocks to nodes")
	}
}

func TestDetectTopologyFallback(t *testing.T) {
	topo := detectTopology("/definitely/not/a/sysfs/path")
	if topo.Nodes() != 1 {
		t.Fatalf("missing sysfs must fall back to 1 node, got %d", topo.Nodes())
	}
	if topo.NodeOf(5, 8) != 0 {
		t.Error("single-node topology must map every worker to node 0")
	}
}

func TestNodeArenaClampsAndPersists(t *testing.T) {
	a := NodeArena(0)
	if a == nil {
		t.Fatal("nil arena")
	}
	if NodeArena(0) != a {
		t.Error("NodeArena must return the same arena per node")
	}
	if NodeArena(-1) != a || NodeArena(999) == nil {
		t.Error("out-of-range nodes must clamp, not fail")
	}
}

func TestBatchPartBoundsPartitionChunks(t *testing.T) {
	for _, nchunks := range []int{1, 2, 7, 31, 32, 33, 1000} {
		for _, nparts := range []int{1, 2, 5, maxBatchParts} {
			b := &batch{launch: launch{nchunks: nchunks}, nparts: nparts}
			prev := 0
			for p := 0; p < nparts; p++ {
				lo, hi := b.partBounds(p)
				if lo != prev || hi < lo {
					t.Fatalf("nchunks=%d nparts=%d: part %d = [%d,%d), prev end %d", nchunks, nparts, p, lo, hi, prev)
				}
				prev = hi
			}
			if prev != nchunks {
				t.Fatalf("nchunks=%d nparts=%d: parts cover %d chunks", nchunks, nparts, prev)
			}
		}
	}
}
