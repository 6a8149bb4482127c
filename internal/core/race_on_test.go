//go:build race

package core

// raceDetector reports a -race build, whose instrumented kernels run about
// twenty times slower; exhaustive suites trim their size matrix under it.
const raceDetector = true
