//go:build race

package vm

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
