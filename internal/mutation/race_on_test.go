//go:build race

package mutation

// raceDetector reports a -race build, whose instrumented loops run about
// ten times slower; the ν = 0…22 transform suite stops at ν = 16 under it.
const raceDetector = true
