package harness

import (
	"fmt"
	"math"
)

// Error-threshold location. Figure 1 shows the phenomenon; this file
// turns it into a number: the critical error rate p_max at which the
// ordered quasispecies collapses, located by k-section on the master-class
// concentration (LocateThresholdOpts, sweep.go), plus the classical
// first-order theory value to compare against.

// TheoreticalThreshold returns the textbook estimate of the error
// threshold for a single-peak landscape with superiority σ = f₀/f_base:
// the ordered phase persists while the master's effective replication
// rate σ·(1−p)^ν exceeds the background, giving
//
//	p_max ≈ 1 − σ^(−1/ν)  (≈ ln(σ)/ν for small p).
func TheoreticalThreshold(sigma float64, nu int) (float64, error) {
	if !(sigma > 1) || math.IsInf(sigma, 1) {
		return 0, fmt.Errorf("harness: superiority σ = %g must be finite and exceed 1", sigma)
	}
	if nu < 1 {
		return 0, fmt.Errorf("harness: ν = %d must be positive", nu)
	}
	return 1 - math.Pow(sigma, -1/float64(nu)), nil
}
