//go:build race

package lockd_test

// raceEnabled reports whether the race detector is on; see
// TestMuxRoundTripZeroAllocs.
const raceEnabled = true
