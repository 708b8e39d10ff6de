//go:build race

package testbed

// raceEnabled reports whether the race detector is on; under it,
// sync.Pool drops a share of what it is given.
const raceEnabled = true
