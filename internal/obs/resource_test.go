package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const procStatusFixture = `Name:	qsolve
Umask:	0022
State:	R (running)
VmPeak:	  204800 kB
VmSize:	  102400 kB
VmHWM:	   81920 kB
VmRSS:	   40960 kB
RssAnon:	   30720 kB
Threads:	9
`

func TestParseProcStatus(t *testing.T) {
	rss, peak, err := ParseProcStatus([]byte(procStatusFixture))
	if err != nil {
		t.Fatal(err)
	}
	if rss != 40960*1024 {
		t.Fatalf("rss = %d, want %d", rss, 40960*1024)
	}
	if peak != 81920*1024 {
		t.Fatalf("peak = %d, want %d", peak, 81920*1024)
	}
}

func TestParseProcStatusMissingVmHWMClampsToRSS(t *testing.T) {
	in := "VmRSS:\t 512 kB\nThreads:\t1\n"
	rss, peak, err := ParseProcStatus([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if rss != 512*1024 || peak != rss {
		t.Fatalf("rss/peak = %d/%d, want peak clamped to rss %d", rss, peak, 512*1024)
	}
}

func TestParseProcStatusMissingVmRSSErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"Name:\tqsolve\nVmHWM:\t 100 kB\n",
		"VmRSS:\t notanumber kB\n", // present but unparsable == absent
		"VmRSS:\t 100 MB\n",        // wrong unit suffix
	} {
		if _, _, err := ParseProcStatus([]byte(in)); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
}

// TestReadMemStatusFromFixtureTree drives the collector against t.TempDir()
// procfs trees: a full tree succeeds, and a missing (hidepid) or unparsable
// status file degrades with one reason.
func TestReadMemStatusFromFixtureTree(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "status", procStatusFixture)

	m := readMemStatusFrom(dir)
	if !m.Available {
		t.Fatalf("not available: %s", m.Reason)
	}
	if m.RSSBytes != 40960*1024 || m.PeakRSSBytes != 81920*1024 {
		t.Fatalf("rss/peak = %d/%d", m.RSSBytes, m.PeakRSSBytes)
	}

	// No status at all: degraded, reason names the path.
	m = readMemStatusFrom(t.TempDir())
	if m.Available || !strings.Contains(m.Reason, "status") {
		t.Fatalf("missing status: %+v", m)
	}

	// Unparsable status: degraded with a parse reason.
	bad := t.TempDir()
	writeFixture(t, bad, "status", "Name:\tqsolve\n")
	m = readMemStatusFrom(bad)
	if m.Available || !strings.Contains(m.Reason, "parsing") {
		t.Fatalf("unparsable status: %+v", m)
	}
}

func writeFixture(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
