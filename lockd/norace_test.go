//go:build !race

package lockd_test

const raceEnabled = false
