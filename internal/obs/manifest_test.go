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
		Tool: "qs-test", Nu: 14, Method: "power", Workers: 2, PGrid: []float64{0.01, 0.02},
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
	// The kernel-tier probe must state a reason below the top tier.
	if m.SIMD != vec.TierAVX512.String() && m.SIMDReason == "" {
		t.Errorf("kernel tier %s without a degradation reason", m.SIMD)
	}
	// The command line is always recorded: the test binary's flags are
	// registered on flag.CommandLine.
	if _, ok := m.Flags["test.run"]; !ok {
		t.Errorf("flag set not recorded: %v", m.Flags)
	}
}

// TestManifestNamesKernelTier logs the tier the process started at (CI
// prints it), then checks that the manifest names the active kernel tier at
// every tier the host can run, says why the next higher tier is off below
// the top one, and states the tier once: simd/simd_reason, no avx2 keys.
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
	}
	data, err := json.Marshal(NewManifest(ManifestWorkload{Tool: "qs-test"}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"simd":"`) {
		t.Errorf("manifest JSON has no simd field: %s", data)
	}
	if strings.Contains(string(data), `"avx2`) {
		t.Errorf("manifest JSON still states the tier as avx2: %s", data)
	}
}

// TestManifestKeys pins manifest.json's key set: the schema-1 keys minus
// avx2 and avx2_reason, with the build and host blocks flattened in.
func TestManifestKeys(t *testing.T) {
	data, err := json.Marshal(NewManifest(ManifestWorkload{
		Tool: "qs-test", Nu: 10, Method: "power", Workers: 1, PGrid: []float64{0.01},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	always := []string{
		"schema", "run_id", "time", "tool", "flags", "go_version",
		"goos", "goarch", "num_cpu", "gomaxprocs", "numa_node_cpus", "simd",
		"nu", "method", "workers", "p_grid",
	}
	optional := []string{
		"args", "module", "module_version", "vcs_revision", "vcs_time",
		"vcs_dirty", "simd_reason",
	}
	for _, k := range always {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest lacks %q: %s", k, data)
		}
		delete(keys, k)
	}
	for _, k := range optional {
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("manifest has unexpected key %q", k)
	}
}

// TestReadManifestSchema1: a schema-1 manifest, which still carries avx2
// and avx2_reason next to simd, reads into the schema-2 record.
func TestReadManifestSchema1(t *testing.T) {
	path := filepath.Join(t.TempDir(), ManifestName)
	body := `{"schema": 1, "run_id": "20260101T000000-00000000", "time": "2026-01-01T00:00:00Z",
		"tool": "qs-threshold", "go_version": "go1.24.0", "vcs_revision": "abc",
		"goos": "linux", "goarch": "amd64", "num_cpu": 2, "gomaxprocs": 2,
		"numa_node_cpus": [[0, 1]], "avx2": false, "avx2_reason": "QS_NOAVX2 set",
		"simd": "go", "simd_reason": "QS_NOAVX2 set", "nu": 14}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFile(path)
	if err != nil {
		t.Fatalf("schema-1 manifest rejected: %v", err)
	}
	if m.Schema != 1 || m.GoVersion != "go1.24.0" || m.Revision != "abc" ||
		m.GOMAXPROCS != 2 || m.SIMD != "go" || m.SIMDReason != "QS_NOAVX2 set" || m.Nu != 14 {
		t.Fatalf("schema-1 manifest read as %+v", m)
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
