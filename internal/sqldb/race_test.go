//go:build race

package sqldb

// raceEnabled reports that this build runs under the race detector,
// which instruments allocations, so allocation counts lose their
// meaning.
const raceEnabled = true
