package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/device"
	"repro/internal/vec"
)

// Run manifest: the schema-versioned identity record of one solver run.
// A manifest is stamped once at solve/sweep start and answers, months
// later, the questions a bare trace file cannot: which binary (module
// version, VCS revision, dirty tree), which machine shape (GOMAXPROCS,
// NUMA node map), which fast paths were live (AVX2 — and if not, why),
// and which workload (tool, flags, p-grid). Its RunID is threaded through
// span profiles, trace rows, flight bundles and /metrics, so every
// artifact of a run names the same identity.

// ManifestSchema is the current manifest schema version. Bump it when a
// field changes meaning; readers must tolerate unknown fields (plain
// encoding/json semantics) so newer bundles stay readable.
const ManifestSchema = 1

// ManifestName is the file name a manifest is written under inside a
// flight bundle directory.
const ManifestName = "manifest.json"

// Manifest is the run identity record. All fields are stamped at creation
// and immutable afterwards.
type Manifest struct {
	Schema int      `json:"schema"`
	RunID  string   `json:"run_id"`
	Time   string   `json:"time"` // RFC 3339, manifest creation
	Tool   string   `json:"tool,omitempty"`
	Args   []string `json:"args,omitempty"`
	// Flags is the tool's resolved flag set (name → value) at start.
	Flags map[string]string `json:"flags,omitempty"`

	// Build identity, from debug.ReadBuildInfo. Revision/VCSTime/Dirty are
	// empty when the binary was built without VCS stamping (go test, go
	// run from a non-repo directory).
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"module_version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Dirty     bool   `json:"vcs_dirty,omitempty"`

	// Host shape.
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NUMANodes  [][]int `json:"numa_node_cpus"`

	// Fast-path availability with degradation reasons.
	AVX2       bool   `json:"avx2"`
	AVX2Reason string `json:"avx2_reason,omitempty"`

	// Workload parameters (zero values when not applicable to the tool).
	Nu      int       `json:"nu,omitempty"`
	Method  string    `json:"method,omitempty"`
	Workers int       `json:"workers,omitempty"`
	PGrid   []float64 `json:"p_grid,omitempty"`
}

// NewRunID returns a fresh run identifier: a UTC timestamp plus random
// hex, e.g. "20260808T154501-9f2c41d8" — sortable, file-name safe, and
// unique across concurrent processes.
func NewRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the timestamp alone; collisions need two runs in
		// the same second with a broken entropy source.
		return time.Now().UTC().Format("20060102T150405")
	}
	return time.Now().UTC().Format("20060102T150405") + "-" + hex.EncodeToString(b[:])
}

// ManifestWorkload carries the workload fields of NewManifest.
type ManifestWorkload struct {
	Tool    string
	Args    []string
	Flags   map[string]string
	Nu      int
	Method  string
	Workers int
	PGrid   []float64
}

// NewManifest stamps a manifest for a new run: a fresh RunID plus the
// build, host, and fast-path probes.
func NewManifest(w ManifestWorkload) *Manifest {
	m := &Manifest{
		Schema: ManifestSchema,
		RunID:  NewRunID(),
		Time:   time.Now().UTC().Format(time.RFC3339),
		Tool:   w.Tool,
		Args:   w.Args,
		Flags:  w.Flags,

		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NUMANodes:  device.Topo().NodeCPUs,

		Nu: w.Nu, Method: w.Method, Workers: w.Workers, PGrid: w.PGrid,
	}
	m.AVX2, m.AVX2Reason = vec.AVX2()
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
		m.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// WriteFile writes the manifest as indented JSON to path, creating parent
// directories as needed.
func (m *Manifest) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifestFile parses a manifest written by WriteFile, validating the
// schema version and run ID.
func ReadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: manifest %s: %w", path, err)
	}
	if m.Schema <= 0 || m.Schema > ManifestSchema {
		return nil, fmt.Errorf("obs: manifest %s: unsupported schema %d", path, m.Schema)
	}
	if m.RunID == "" {
		return nil, fmt.Errorf("obs: manifest %s: missing run_id", path)
	}
	return &m, nil
}
