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

// WithoutAVX512 runs f with the stride-1 kernels switched off and
// reports whether it ran: on a CPU without AVX-512 every test already
// runs that way, and f is not called.
func WithoutAVX512(f func()) bool {
	if !useAVX512 {
		return false
	}
	useAVX512 = false
	defer func() { useAVX512 = true }()
	f()
	return true
}

// HasAVX512 reports whether the stride-1 kernels run on this CPU.
func HasAVX512() bool { return useAVX512 }
