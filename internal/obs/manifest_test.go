package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
