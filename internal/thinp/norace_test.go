//go:build !race

package thinp

// raceEnabled reports whether the race detector is built in (see
// race_test.go).
const raceEnabled = false
