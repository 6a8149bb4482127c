package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Lossless JSON forms of the solver's diagnostic errors, so flight
// bundles and service responses can carry them without flattening to a
// message string. The sentinel Reason of a ConvergenceError maps to a
// stable token ("no_convergence", "stagnated", "breakdown") rather than
// its message, which keeps serialized errors comparable across versions
// that reword the sentinel text. The float fields are jsonFloat, so the
// NaN residual of a breakdown survives the round trip.

const (
	reasonNoConvergence = "no_convergence"
	reasonStagnated     = "stagnated"
	reasonBreakdown     = "breakdown"
)

// convergenceErrorJSON is the wire shape of ConvergenceError.
type convergenceErrorJSON struct {
	Reason           string    `json:"reason"`
	Method           string    `json:"method,omitempty"`
	Detail           string    `json:"detail,omitempty"`
	Iterations       int       `json:"iterations"`
	Residual         jsonFloat `json:"residual"`
	BestResidual     jsonFloat `json:"best_residual"`
	SinceImprovement int       `json:"since_improvement"`
	Shift            jsonFloat `json:"shift"`
	Tol              jsonFloat `json:"tol"`
}

// jsonFloat is a float64 whose JSON form survives NaN and ±Inf, which
// encoding/json refuses: finite values encode as a float64 does, the
// others as the strings "NaN", "+Inf" and "-Inf".
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	var s string
	if json.Unmarshal(data, &s) == nil {
		v, err := strconv.ParseFloat(s, 64)
		*f = jsonFloat(v)
		return err
	}
	return json.Unmarshal(data, (*float64)(f))
}

// MarshalJSON serializes the error losslessly; see UnmarshalJSON for the
// inverse.
func (e *ConvergenceError) MarshalJSON() ([]byte, error) {
	reason := ""
	switch {
	case errors.Is(e.Reason, ErrNoConvergence):
		reason = reasonNoConvergence
	case errors.Is(e.Reason, ErrStagnated):
		reason = reasonStagnated
	case errors.Is(e.Reason, ErrBreakdown):
		reason = reasonBreakdown
	case e.Reason != nil:
		reason = e.Reason.Error()
	}
	return json.Marshal(convergenceErrorJSON{
		Reason: reason, Method: e.Method, Detail: e.Detail,
		Iterations: e.Iterations, Residual: jsonFloat(e.Residual), BestResidual: jsonFloat(e.BestResidual),
		SinceImprovement: e.SinceImprovement, Shift: jsonFloat(e.Shift), Tol: jsonFloat(e.Tol),
	})
}

// UnmarshalJSON restores an error serialized by MarshalJSON. The known
// reason tokens map back onto the package sentinels, so errors.Is keeps
// working on a round-tripped error.
func (e *ConvergenceError) UnmarshalJSON(data []byte) error {
	var w convergenceErrorJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.Reason {
	case reasonNoConvergence:
		e.Reason = ErrNoConvergence
	case reasonStagnated:
		e.Reason = ErrStagnated
	case reasonBreakdown:
		e.Reason = ErrBreakdown
	case "":
		e.Reason = nil
	default:
		e.Reason = errors.New(w.Reason)
	}
	e.Method, e.Detail = w.Method, w.Detail
	e.Iterations, e.Residual, e.BestResidual = w.Iterations, float64(w.Residual), float64(w.BestResidual)
	e.SinceImprovement, e.Shift, e.Tol = w.SinceImprovement, float64(w.Shift), float64(w.Tol)
	return nil
}

// gapUnresolvedErrorJSON is the wire shape of GapUnresolvedError.
type gapUnresolvedErrorJSON struct {
	Reason     string  `json:"reason"`
	Lambda0    float64 `json:"lambda0"`
	Lambda1    float64 `json:"lambda1"`
	Separation float64 `json:"separation"`
	Resolution float64 `json:"resolution"`
}

// MarshalJSON serializes the error losslessly.
func (e *GapUnresolvedError) MarshalJSON() ([]byte, error) {
	return json.Marshal(gapUnresolvedErrorJSON{
		Reason: e.Reason, Lambda0: e.Lambda0, Lambda1: e.Lambda1,
		Separation: e.Separation, Resolution: e.Resolution,
	})
}

// UnmarshalJSON restores an error serialized by MarshalJSON.
func (e *GapUnresolvedError) UnmarshalJSON(data []byte) error {
	var w gapUnresolvedErrorJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Reason == "" {
		return fmt.Errorf("core: gap error JSON missing reason")
	}
	e.Reason = w.Reason
	e.Lambda0, e.Lambda1 = w.Lambda0, w.Lambda1
	e.Separation, e.Resolution = w.Separation, w.Resolution
	return nil
}
