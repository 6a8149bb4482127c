package obs

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Process memory introspection for /healthz: current and peak RSS from
// Linux procfs. Every failure mode (non-Linux host, missing or unreadable
// /proc file) collapses to a status with Available == false and ONE
// human-readable Reason, and callers never branch on platform. The parser
// takes raw file contents so it is fixture-testable on every OS.

// MemStatus is one read of the process' resident memory from
// /proc/self/status.
type MemStatus struct {
	Available bool   `json:"available"`
	Reason    string `json:"reason,omitempty"`
	// RSSBytes and PeakRSSBytes are VmRSS / VmHWM.
	RSSBytes     int64 `json:"rss_bytes,omitempty"`
	PeakRSSBytes int64 `json:"rss_peak_bytes,omitempty"`
}

// procSelfDir is the procfs directory the collector reads; tests point it
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
	return MemStatus{Available: true, RSSBytes: rss, PeakRSSBytes: peak}
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
