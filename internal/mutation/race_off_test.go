//go:build !race

package mutation

// raceDetector reports a -race build; see race_on_test.go.
const raceDetector = false
