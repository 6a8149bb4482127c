package quasispecies

import (
	"testing"

	"repro/internal/obs"
)

// TestFlightOffIsInert: with no flight started, the tee points see a nil
// recorder and observing structures stay empty.
func TestFlightOffIsInert(t *testing.T) {
	if fl := obs.ActiveFlight(); fl != nil {
		t.Fatalf("a flight recorder leaked from another test: %v", fl.RunID())
	}
}

// TestTeeSolveObservers checks the tee combinator: nil short-circuits and
// both observers receive every call.
func TestTeeSolveObservers(t *testing.T) {
	if TeeSolveObservers(nil, nil) != nil {
		t.Fatal("tee of two nils is not nil")
	}
	a := &countObserver{}
	if TeeSolveObservers(a, nil) != SolveObserver(a) || TeeSolveObservers(nil, a) != SolveObserver(a) {
		t.Fatal("tee with one nil did not return the other observer unchanged")
	}
	b := &countObserver{}
	tee := TeeSolveObservers(a, b)
	tee.Step(1, 2.0, 1e-3)
	tee.Event("start", 0, 0, 0)
	if m, ok := tee.(interface{ Method(string) }); ok {
		m.Method("power")
	} else {
		t.Fatal("tee does not forward Method")
	}
	for i, o := range []*countObserver{a, b} {
		if o.steps != 1 || o.events != 1 || o.methods != 1 {
			t.Fatalf("observer %d saw steps=%d events=%d methods=%d", i, o.steps, o.events, o.methods)
		}
	}
}

type countObserver struct{ steps, events, methods int }

func (c *countObserver) Step(int, float64, float64)          { c.steps++ }
func (c *countObserver) Event(string, int, float64, float64) { c.events++ }
func (c *countObserver) Method(string)                       { c.methods++ }
