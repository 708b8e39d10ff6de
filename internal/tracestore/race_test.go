//go:build race

package tracestore

// raceEnabled reports a -race build, under which sync.Pool drops a
// share of Puts on purpose and allocation counts are not steady.
const raceEnabled = true
