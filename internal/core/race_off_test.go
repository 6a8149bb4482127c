//go:build !race

package core

// raceDetector reports a -race build; see race_on_test.go.
const raceDetector = false
