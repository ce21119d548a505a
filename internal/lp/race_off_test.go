//go:build !race

package lp_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
