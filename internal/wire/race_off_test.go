//go:build !race

package wire

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
