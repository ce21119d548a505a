//go:build !amd64

package vm

// vecRun reports that this platform has no vector kernels: every run
// takes the scalar kernel.
func vecRun(vals []Word, S int, op uint8, dst, dst2, a, b, c []int32) bool { return false }
