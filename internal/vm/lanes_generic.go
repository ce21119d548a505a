//go:build !amd64

package vm

// vecRun reports that this platform has no vector kernels: every run
// takes the scalar kernel.
func vecRun(vals []Word, S int, op uint8, dst, dst2, a, b, c []int32) bool { return false }

// vecRun1 reports that this platform has no stride-1 vector kernels: it
// runs none of the run's instructions.
func vecRun1(vals *Word, op uint8, dst, dst2, a, b, c *int32, n int) int { return 0 }
