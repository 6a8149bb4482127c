package mutation

// Span names of the butterfly kernels (internal/span, layer "mutation").
// The span recorder is the kernels' only instrumentation hook: with none
// installed each Apply variant pays one atomic pointer load (no timing
// calls, no allocations — guarded by the alloc/bit-identity tests).
// internal/obs feeds the qs_kernel_* metric families from the apply and
// stage-group spans.
const (
	KindApply            = "apply"              // Process.Apply (serial blocked)
	KindApplyDevice      = "apply_device"       // Process.ApplyDevice
	KindApplyBatch       = "apply_batch"        // Process.ApplyBatch
	KindApplyBatchDevice = "apply_batch_device" // Process.ApplyBatchDevice
	KindStageGroup       = "stage_group"        // one fused stage-group pass within an Apply
	KindApplyInverse     = "apply_inverse"      // Process.ApplyInverse
	KindShiftInvert      = "shift_invert"       // Process.ApplyShiftInvert[Device]
)
