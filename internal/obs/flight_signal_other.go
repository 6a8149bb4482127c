//go:build !unix

package obs

// watchSignals is a no-op off unix: SIGUSR1/SIGQUIT do not exist, and the
// other dump triggers (solver errors, panics, /debug/flight) carry the
// diagnostic load.
func (f *FlightRecorder) watchSignals() {}
