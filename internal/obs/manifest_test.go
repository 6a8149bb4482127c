package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vec"
)

func TestNewManifestStampsIdentity(t *testing.T) {
	m := NewManifest(ManifestWorkload{
		Tool: "qs-test", Args: []string{"-nu", "14"},
		Flags: map[string]string{"nu": "14"},
		Nu:    14, Method: "power", Workers: 2, PGrid: []float64{0.01, 0.02},
	})
	if m.Schema != ManifestSchema {
		t.Fatalf("schema %d, want %d", m.Schema, ManifestSchema)
	}
	if m.RunID == "" || m.Time == "" || m.GoVersion == "" {
		t.Fatalf("missing identity fields: %+v", m)
	}
	if m.Tool != "qs-test" || m.Nu != 14 || m.Workers != 2 || len(m.PGrid) != 2 {
		t.Fatalf("workload fields not carried: %+v", m)
	}
	if m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Fatalf("host shape not probed: %+v", m)
	}
	// The fast-path probe must state a reason whenever unavailable.
	if !m.AVX2 && m.AVX2Reason == "" {
		t.Error("AVX2 unavailable without a degradation reason")
	}
}

// TestManifestNamesKernelTier logs the tier the process started at (CI
// prints it), then checks that the manifest names the active kernel tier at
// every tier the host can run, says why the next higher tier is off below
// the top one, and keeps avx2 and avx2_reason consistent with the tier.
func TestManifestNamesKernelTier(t *testing.T) {
	tier, reason := vec.SIMD()
	t.Logf("kernel tier: %v (%s)", tier, reason)
	was := vec.SetTier(vec.TierAVX512)
	defer vec.SetTier(was)
	for _, tier := range vec.Tiers() {
		vec.SetTier(tier)
		m := NewManifest(ManifestWorkload{Tool: "qs-test"})
		if m.SIMD != tier.String() {
			t.Errorf("tier %v: manifest simd %q", tier, m.SIMD)
		}
		if (m.SIMDReason == "") != (tier == vec.TierAVX512) {
			t.Errorf("tier %v: simd_reason %q", tier, m.SIMDReason)
		}
		if m.AVX2 != (tier >= vec.TierAVX2) || (m.AVX2Reason == "") != m.AVX2 {
			t.Errorf("tier %v: avx2 %v, avx2_reason %q", tier, m.AVX2, m.AVX2Reason)
		}
	}
	data, err := json.Marshal(NewManifest(ManifestWorkload{Tool: "qs-test"}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"simd":"`) {
		t.Errorf("manifest JSON has no simd field: %s", data)
	}
}

func TestNewRunIDUnique(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == b {
		t.Fatalf("consecutive run IDs collide: %s", a)
	}
	if strings.ContainsAny(a, "/\\ :") {
		t.Fatalf("run ID %q is not file-name safe", a)
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", ManifestName)
	m := NewManifest(ManifestWorkload{Tool: "qs-test", Nu: 10})
	if err := m.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := ReadManifestFile(path)
	if err != nil {
		t.Fatalf("ReadManifestFile: %v", err)
	}
	if back.RunID != m.RunID || back.Tool != m.Tool || back.Nu != m.Nu {
		t.Fatalf("round-trip = %+v, want %+v", back, m)
	}
}

func TestReadManifestFileRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body string
	}{
		{"future-schema", `{"schema": 99, "run_id": "x", "go_version": "go"}`},
		{"zero-schema", `{"schema": 0, "run_id": "x"}`},
		{"missing-run-id", `{"schema": 1}`},
		{"not-json", `schema: 1`},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifestFile(path); err == nil {
			t.Errorf("%s: accepted invalid manifest", c.name)
		}
	}
}
