//go:build race

package xcrypto

// raceEnabled reports whether the race detector is built in. Under it
// sync.Pool drops items at random, so an allocation count measures the
// detector, not the code: the AllocsPerRun assertions hold only without it,
// as the standard library's own allocation tests do.
const raceEnabled = true
