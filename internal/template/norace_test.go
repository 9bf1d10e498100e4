//go:build !race

package template_test

// raceEnabled reports whether this build runs under the race detector.
const raceEnabled = false
