package span

import (
	"testing"
	"time"
)

type fakeHandle struct {
	rec          *fakeRecorder
	layer, name  string
	gotA1, gotA2 int64
	ended        bool
}

func (h *fakeHandle) End(a1, a2 int64) {
	h.gotA1, h.gotA2 = a1, a2
	h.ended = true
	h.rec.ends++
}

type fakeRecorder struct {
	begins, ends, records int
	last                  *fakeHandle
}

func (r *fakeRecorder) Begin(layer, name string) Handle {
	r.begins++
	r.last = &fakeHandle{rec: r, layer: layer, name: name}
	return r.last
}

func (r *fakeRecorder) Record(layer, name string, d time.Duration, a1, a2 int64) {
	r.records++
}

func TestDisabledBeginReturnsNil(t *testing.T) {
	SetRecorder(nil)
	if Enabled() {
		t.Fatal("Enabled() with no recorder installed")
	}
	if Installed() != nil {
		t.Fatal("Installed() != nil with no recorder")
	}
	if h := Begin(LayerCore, "matvec"); h != nil {
		t.Fatalf("Begin returned %v with no recorder", h)
	}
	End(nil, 1, 2) // must be a safe no-op
}

func TestInstallAndRoundTrip(t *testing.T) {
	r := &fakeRecorder{}
	SetRecorder(r)
	defer SetRecorder(nil)

	if !Enabled() {
		t.Fatal("Enabled() = false after SetRecorder")
	}
	if Installed() != Recorder(r) {
		t.Fatal("Installed() did not return the installed recorder")
	}
	h := Begin(LayerMutation, "apply")
	if h == nil {
		t.Fatal("Begin returned nil with a recorder installed")
	}
	End(h, 18, 1)
	if r.begins != 1 || r.ends != 1 {
		t.Fatalf("begins=%d ends=%d, want 1, 1", r.begins, r.ends)
	}
	if r.last.layer != LayerMutation || r.last.name != "apply" {
		t.Fatalf("span site = %s/%s", r.last.layer, r.last.name)
	}
	if r.last.gotA1 != 18 || r.last.gotA2 != 1 {
		t.Fatalf("End args = %d, %d", r.last.gotA1, r.last.gotA2)
	}

	Installed().Record(LayerDevice, "queue_wait", time.Millisecond, 4, 0)
	if r.records != 1 {
		t.Fatalf("records = %d", r.records)
	}

	SetRecorder(nil)
	if Enabled() || Begin(LayerCore, "x") != nil {
		t.Fatal("recorder still installed after SetRecorder(nil)")
	}
}

func TestDisabledBeginDoesNotAllocate(t *testing.T) {
	SetRecorder(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		h := Begin(LayerCore, "matvec")
		End(h, 0, 0)
	}); allocs != 0 {
		t.Errorf("disabled Begin/End allocates %.0f objects per call", allocs)
	}
}
