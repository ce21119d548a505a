//go:build amd64

package vm

// WithoutAVX2 runs f with the vector kernels switched off and reports
// whether it ran: on a CPU without AVX2 every test already runs that
// way, and f is not called.
func WithoutAVX2(f func()) bool {
	if !useAVX2 {
		return false
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	f()
	return true
}
