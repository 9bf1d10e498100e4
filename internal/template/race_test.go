//go:build race

package template_test

// raceEnabled reports that this build runs under the race detector,
// where sync.Pool drops items at random and allocation counts lose
// their meaning.
const raceEnabled = true
