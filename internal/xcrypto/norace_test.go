//go:build !race

package xcrypto

// raceEnabled reports whether the race detector is built in (see
// race_test.go).
const raceEnabled = false
