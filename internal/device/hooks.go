package device

// Span names of the kernel-launch runtime (internal/span, layer "device").
// The span recorder is the runtime's only instrumentation hook: with none
// installed a launch pays one atomic pointer load. internal/obs feeds the
// qs_device_* metric families from these spans.

// Launch kinds, the names of the device-layer launch spans.
const (
	LaunchKindRange  = "range"  // Launch / LaunchRange dispatches
	LaunchKindStages = "stages" // fused stage-group dispatches (LaunchStages)
	LaunchKindReduce = "reduce" // reduction launches
)

// SpanQueueWait is the device-layer span reported post hoc, inside every
// observed launch, for the barrier tail the submitting goroutine spent
// blocked on pool workers after exhausting the chunk queue — the pool's
// queue-wait/straggler signal. It is zero for single-chunk and spawn
// dispatches; a zero-length record carries no time and only counts the
// launch for the queue-wait histogram.
const SpanQueueWait = "queue_wait"
