//go:build !race

package sqldb

// raceEnabled reports whether this build runs under the race detector.
const raceEnabled = false
