package mutation

// Span names of the butterfly kernels (internal/span, layer "mutation").
// The span recorder is the kernels' only instrumentation hook: with none
// installed each Apply variant pays one atomic pointer load (no timing
// calls, no allocations — guarded by the alloc/bit-identity tests).
// Each span ends with its stage count as the first argument; the second is
// always 0 (one vector per pass).
const (
	KindApply       = "apply"        // Process.Apply (serial blocked)
	KindApplyDevice = "apply_device" // Process.ApplyDevice
	KindStageGroup  = "stage_group"  // one fused stage-group pass within an Apply
	KindShiftInvert = "shift_invert" // Process.ApplyShiftInvert
)
