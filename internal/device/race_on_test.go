//go:build race

package device

// raceDetector reports a -race build, whose instrumented loops run about
// ten times slower; the 33-piece reduction length is skipped under it.
const raceDetector = true
