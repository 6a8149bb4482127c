package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// Resource introspection for the telemetry sampler: Go runtime state via
// runtime/metrics plus Linux procfs memory/NUMA files. Every failure mode
// (non-Linux host, missing or unreadable /proc file, kernel without
// smaps_rollup) collapses to a status with Available == false and ONE
// human-readable Reason, and callers never branch on platform. The parsers take raw file contents so
// they are fixture-testable on every OS.

// MemStatus is one read of the process' memory placement: current and peak
// RSS from /proc/self/status, transparent-huge-page adoption from
// /proc/self/smaps_rollup.
type MemStatus struct {
	Available bool   `json:"available"`
	Reason    string `json:"reason,omitempty"`
	// RSSBytes and PeakRSSBytes are VmRSS / VmHWM.
	RSSBytes     int64 `json:"rss_bytes,omitempty"`
	PeakRSSBytes int64 `json:"rss_peak_bytes,omitempty"`
	// AnonHugeBytes is the RSS currently backed by transparent huge pages
	// (AnonHugePages), the adoption signal for the MADV_HUGEPAGE vectors.
	AnonHugeBytes int64 `json:"anon_huge_bytes,omitempty"`
	// HugeRatio is AnonHugeBytes / RSSBytes (0 when RSS is 0).
	HugeRatio float64 `json:"huge_ratio,omitempty"`
}

// NUMAStatus is one read of /proc/self/numa_maps: how the process' pages
// are placed across NUMA nodes — the verification signal for first-touch
// placement.
type NUMAStatus struct {
	Available bool   `json:"available"`
	Reason    string `json:"reason,omitempty"`
	// NodeBytes maps NUMA node id → resident bytes placed on it.
	NodeBytes map[int]int64 `json:"node_bytes,omitempty"`
	// TotalBytes is the sum over nodes; HugeBytes the share of it in
	// mappings flagged huge.
	TotalBytes int64 `json:"total_bytes,omitempty"`
	HugeBytes  int64 `json:"huge_bytes,omitempty"`
}

// procSelfDir is the procfs directory the collectors read; tests point it
// at fixture trees.
const procSelfDir = "/proc/self"

// ReadMemStatus reads the live process memory status. Non-Linux hosts and
// unreadable files degrade to Available == false with one reason.
func ReadMemStatus() MemStatus {
	if runtime.GOOS != "linux" {
		return MemStatus{Reason: "memory introspection requires Linux procfs (GOOS=" + runtime.GOOS + ")"}
	}
	return readMemStatusFrom(procSelfDir)
}

func readMemStatusFrom(dir string) MemStatus {
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return MemStatus{Reason: fmt.Sprintf("reading %s/status: %v", dir, err)}
	}
	rss, peak, err := ParseProcStatus(status)
	if err != nil {
		return MemStatus{Reason: fmt.Sprintf("parsing %s/status: %v", dir, err)}
	}
	m := MemStatus{Available: true, RSSBytes: rss, PeakRSSBytes: peak}
	// smaps_rollup needs a newer kernel (4.14+) and may be denied under
	// hardened hidepid setups; losing it only costs the huge-page columns.
	if rollup, err := os.ReadFile(dir + "/smaps_rollup"); err == nil {
		if sm, perr := ParseSMapsRollup(rollup); perr == nil {
			m.AnonHugeBytes = sm.AnonHugeBytes
			if m.RSSBytes > 0 {
				m.HugeRatio = float64(sm.AnonHugeBytes) / float64(m.RSSBytes)
			}
		}
	}
	return m
}

// ReadNUMAStatus reads the live process NUMA placement.
func ReadNUMAStatus() NUMAStatus {
	if runtime.GOOS != "linux" {
		return NUMAStatus{Reason: "NUMA introspection requires Linux procfs (GOOS=" + runtime.GOOS + ")"}
	}
	return readNUMAStatusFrom(procSelfDir)
}

func readNUMAStatusFrom(dir string) NUMAStatus {
	raw, err := os.ReadFile(dir + "/numa_maps")
	if err != nil {
		return NUMAStatus{Reason: fmt.Sprintf("reading %s/numa_maps: %v", dir, err)}
	}
	st := ParseNUMAMaps(raw)
	return st
}

// SMapsRollup is the parsed subset of /proc/self/smaps_rollup the solver
// cares about, in bytes.
type SMapsRollup struct {
	RSSBytes      int64
	PSSBytes      int64
	AnonBytes     int64
	AnonHugeBytes int64
}

// ParseSMapsRollup parses smaps_rollup contents: "Field:   1234 kB" lines
// after a header line. Unrecognized or truncated lines are skipped; it is
// an error only when no recognized field parses at all (an empty or
// foreign file).
func ParseSMapsRollup(data []byte) (SMapsRollup, error) {
	var out SMapsRollup
	found := false
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		var dst *int64
		switch strings.TrimSpace(name) {
		case "Rss":
			dst = &out.RSSBytes
		case "Pss":
			dst = &out.PSSBytes
		case "Anonymous":
			dst = &out.AnonBytes
		case "AnonHugePages":
			dst = &out.AnonHugeBytes
		default:
			continue
		}
		v, ok := parseKB(rest)
		if !ok {
			continue // truncated mid-line: keep what already parsed
		}
		*dst = v
		found = true
	}
	if !found {
		return SMapsRollup{}, fmt.Errorf("no recognized smaps_rollup fields in %d bytes", len(data))
	}
	return out, nil
}

// ParseProcStatus extracts VmRSS and VmHWM (bytes) from /proc/self/status
// contents. VmHWM may be absent on exotic kernels; then peak reports as
// rss. Missing VmRSS is an error — without it there is nothing to report.
func ParseProcStatus(data []byte) (rss, peak int64, err error) {
	rss, peak = -1, -1
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(name) {
		case "VmRSS":
			if v, ok := parseKB(rest); ok {
				rss = v
			}
		case "VmHWM":
			if v, ok := parseKB(rest); ok {
				peak = v
			}
		}
	}
	if rss < 0 {
		return 0, 0, fmt.Errorf("no VmRSS field in %d bytes", len(data))
	}
	if peak < rss {
		peak = rss
	}
	return rss, peak, nil
}

// parseKB parses the value part of a "   1234 kB" procfs field into bytes.
func parseKB(s string) (int64, bool) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	if len(fields) > 1 && fields[1] != "kB" {
		return 0, false
	}
	return v * 1024, true
}

// ParseNUMAMaps aggregates numa_maps contents: one line per mapping of the
// form "addr policy tok=val tok ...", where N<node>=<pages> tokens carry
// the per-node page counts and kernelpagesize_kB the page size of the
// mapping. Malformed lines are skipped; an input with no parsable mapping
// reports Available == false rather than zeros masquerading as data.
func ParseNUMAMaps(data []byte) NUMAStatus {
	st := NUMAStatus{NodeBytes: map[int]int64{}}
	parsed := 0
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		pageBytes := int64(4096)
		huge := false
		type nodePages struct {
			node  int
			pages int64
		}
		var nodes []nodePages
		lineOK := false
		for _, tok := range fields[1:] {
			if tok == "huge" {
				huge = true
				continue
			}
			key, val, ok := strings.Cut(tok, "=")
			if !ok {
				continue
			}
			switch {
			case key == "kernelpagesize_kB":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil && v > 0 {
					pageBytes = v * 1024
				}
			case len(key) > 1 && key[0] == 'N':
				node, err1 := strconv.Atoi(key[1:])
				pages, err2 := strconv.ParseInt(val, 10, 64)
				if err1 != nil || err2 != nil || node < 0 || pages < 0 {
					continue
				}
				nodes = append(nodes, nodePages{node, pages})
				lineOK = true
			}
		}
		if !lineOK {
			continue
		}
		parsed++
		for _, np := range nodes {
			b := np.pages * pageBytes
			st.NodeBytes[np.node] += b
			st.TotalBytes += b
			if huge {
				st.HugeBytes += b
			}
		}
	}
	if parsed == 0 {
		return NUMAStatus{Reason: fmt.Sprintf("no parsable mappings in %d bytes of numa_maps", len(data))}
	}
	st.Available = true
	return st
}

// runtimeSampler reads the Go runtime state the sampler publishes, via
// runtime/metrics (no stop-the-world, no allocation after construction).
type runtimeSampler struct {
	samples []metrics.Sample
}

const (
	rmHeap       = "/memory/classes/heap/objects:bytes"
	rmTotal      = "/memory/classes/total:bytes"
	rmGoroutines = "/sched/goroutines:goroutines"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
)

func newRuntimeSampler() *runtimeSampler {
	names := []string{rmHeap, rmTotal, rmGoroutines, rmGCCycles, rmGCPauses}
	rs := &runtimeSampler{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		rs.samples[i].Name = n
	}
	return rs
}

// RuntimeStatus is one read of the Go runtime's own resource state.
type RuntimeStatus struct {
	HeapBytes         int64   `json:"heap_bytes"`
	RuntimeTotalBytes int64   `json:"runtime_total_bytes"`
	Goroutines        int64   `json:"goroutines"`
	GCCycles          int64   `json:"gc_cycles"`
	GCPauseTotal      float64 `json:"gc_pause_total_seconds"`
}

func (rs *runtimeSampler) read() RuntimeStatus {
	metrics.Read(rs.samples)
	var st RuntimeStatus
	for _, s := range rs.samples {
		switch s.Name {
		case rmHeap:
			if s.Value.Kind() == metrics.KindUint64 {
				st.HeapBytes = int64(s.Value.Uint64())
			}
		case rmTotal:
			if s.Value.Kind() == metrics.KindUint64 {
				st.RuntimeTotalBytes = int64(s.Value.Uint64())
			}
		case rmGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				st.Goroutines = int64(s.Value.Uint64())
			}
		case rmGCCycles:
			if s.Value.Kind() == metrics.KindUint64 {
				st.GCCycles = int64(s.Value.Uint64())
			}
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				st.GCPauseTotal = histogramApproxSum(s.Value.Float64Histogram())
			}
		}
	}
	return st
}

// histogramApproxSum estimates Σ values of a runtime/metrics histogram as
// Σ count·bucket-midpoint — exact enough for a monotone cumulative pause
// series whose windowed rate is what the dashboard plots.
func histogramApproxSum(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	sum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case hi > 1e308 && lo > 0: // [lo, +Inf): take the finite bound
			sum += float64(c) * lo
		case hi > 1e308: // degenerate (-Inf, +Inf): nothing sane to add
		case lo < 0: // (-Inf, hi]: take the finite bound
			sum += float64(c) * hi
		default:
			sum += float64(c) * (lo + hi) / 2
		}
	}
	return sum
}
