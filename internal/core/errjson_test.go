package core

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestConvergenceErrorJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		err  ConvergenceError
	}{
		{
			name: "budget exhausted",
			err: ConvergenceError{
				Reason: ErrNoConvergence, Method: SolveKindPower,
				Iterations: 500000, Residual: 3.2e-11, BestResidual: 3.1e-11,
				SinceImprovement: 12, Shift: 0.25, Tol: 1e-13,
			},
		},
		{
			name: "stagnated",
			err: ConvergenceError{
				Reason: ErrStagnated, Method: SolveKindChebyshev,
				Detail:     "inside the critical window",
				Iterations: 812, Residual: 7.7e-14, BestResidual: 7.7e-14,
				SinceImprovement: 100, Tol: 1e-15,
			},
		},
		{
			name: "monitor abort",
			err: ConvergenceError{
				Reason: ErrNoConvergence, Method: SolveKindShiftInvert,
				Detail: "aborted by monitor", Iterations: 4,
			},
		},
		{
			name: "breakdown with non-finite residuals",
			err: ConvergenceError{
				Reason: ErrBreakdown, Method: SolveKindChebyshev,
				Detail: "Ritz residual NaN at restart 1", Iterations: 25,
				Residual: math.NaN(), BestResidual: math.Inf(1), Shift: math.Inf(-1), Tol: 1e-13,
			},
		},
		{
			name: "custom reason survives as text",
			err: ConvergenceError{
				Reason: errors.New("some future cause"), Iterations: 1,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := json.Marshal(&c.err)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back ConvergenceError
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			// Sentinel reasons must restore to the package sentinels so
			// errors.Is keeps working after the round-trip.
			switch {
			case errors.Is(c.err.Reason, ErrNoConvergence):
				if !errors.Is(back.Reason, ErrNoConvergence) {
					t.Errorf("reason did not restore to ErrNoConvergence: %v", back.Reason)
				}
			case errors.Is(c.err.Reason, ErrStagnated):
				if !errors.Is(back.Reason, ErrStagnated) {
					t.Errorf("reason did not restore to ErrStagnated: %v", back.Reason)
				}
			case errors.Is(c.err.Reason, ErrBreakdown):
				if !errors.Is(back.Reason, ErrBreakdown) {
					t.Errorf("reason did not restore to ErrBreakdown: %v", back.Reason)
				}
			default:
				if back.Reason == nil || back.Reason.Error() != c.err.Reason.Error() {
					t.Errorf("custom reason %v round-tripped to %v", c.err.Reason, back.Reason)
				}
			}
			if back.Method != c.err.Method || back.Detail != c.err.Detail {
				t.Errorf("method/detail = %q/%q, want %q/%q",
					back.Method, back.Detail, c.err.Method, c.err.Detail)
			}
			if back.Iterations != c.err.Iterations ||
				!sameBits(back.Residual, c.err.Residual) ||
				!sameBits(back.BestResidual, c.err.BestResidual) ||
				back.SinceImprovement != c.err.SinceImprovement ||
				!sameBits(back.Shift, c.err.Shift) || !sameBits(back.Tol, c.err.Tol) {
				t.Errorf("numeric fields drifted: got %+v want %+v", back, c.err)
			}
		})
	}
}

func TestConvergenceErrorJSONTokens(t *testing.T) {
	// The wire reason is a stable token, not the sentinel's message text.
	data, err := json.Marshal(&ConvergenceError{Reason: ErrStagnated})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"stagnated"`) {
		t.Fatalf("wire form %s does not use the stagnated token", data)
	}
	data, err = json.Marshal(&ConvergenceError{Reason: ErrNoConvergence})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"no_convergence"`) {
		t.Fatalf("wire form %s does not use the no_convergence token", data)
	}
	data, err = json.Marshal(&ConvergenceError{Reason: ErrBreakdown, Residual: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"breakdown"`) || !strings.Contains(string(data), `"residual":"NaN"`) {
		t.Fatalf("wire form %s does not use the breakdown token and a NaN string", data)
	}
}

func TestGapUnresolvedErrorJSONRoundTrip(t *testing.T) {
	cases := []GapUnresolvedError{
		{Reason: "near_degenerate", Lambda0: 2.0001, Lambda1: 2.0000, Separation: 1e-4, Resolution: 2e-4},
		{Reason: "unconverged_ritz", Lambda0: 1.5, Lambda1: 1.1, Separation: 0.4, Resolution: 0.5},
	}
	for _, c := range cases {
		t.Run(c.Reason, func(t *testing.T) {
			data, err := json.Marshal(&c)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back GapUnresolvedError
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if back != c {
				t.Errorf("round-trip = %+v, want %+v", back, c)
			}
		})
	}
}

func TestGapUnresolvedErrorJSONRejectsMissingReason(t *testing.T) {
	var e GapUnresolvedError
	if err := json.Unmarshal([]byte(`{"lambda0": 2}`), &e); err == nil {
		t.Fatal("accepted gap error JSON without a reason")
	}
}
