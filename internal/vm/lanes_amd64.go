//go:build amd64

package vm

// Vector run kernels. The Go compiler does not auto-vectorize, so without
// them the lock-step inner loop runs at scalar throughput and batching
// on one core buys little. Two families: AVX2 kernels that stream a
// batch's lanes at a stride of 8 or more, and AVX-512 kernels that run
// eight instructions of one run at once at a batch of one.
//
// Detection is done once at package init, in assembly: AVX2 requires the
// cpuid feature bit, the AVX bit, and OS support for saving ymm state
// (OSXSAVE + XCR0); AVX-512 the AVX512F and AVX512VL bits and OS support
// for the opmask and zmm state.

var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = cpuHasAVX512()
)

// cpuHasAVX2 reports whether the CPU and OS support AVX2 execution.
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the CPU and OS support AVX-512F and
// AVX-512VL execution.
func cpuHasAVX512() bool

// One call per same-op instruction run. Each kernel loops the run's
// slot-index arrays natively, resolving lane bases with one multiply
// per operand, so the per-instruction cost is a few cycles of address
// arithmetic instead of a Go call with slice bounds checks. stride is
// the lane stride in bytes (S*8, S a multiple of 8).

//go:noescape
func vecAddN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecSubN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecAndN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecOrN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecXorN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecNotN(vals *Word, dst, a *int32, cnt, stride int)

//go:noescape
func vecEqN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecLtN(vals *Word, dst, a, b *int32, cnt, stride int)

//go:noescape
func vecMuxN(vals *Word, dst, a, b, c *int32, cnt, stride int)

//go:noescape
func vecLexN(vals *Word, dst, a, b, c *int32, cnt, stride int)

//go:noescape
func vecSwapN(vals *Word, dst, dst2, a, b, c *int32, cnt, stride int)

// vecRun hands one non-empty run at a stride that is a multiple of 8 to
// its AVX2 kernel. It reports false, having done nothing, when the CPU
// lacks AVX2 or the opcode has no vector form (multiply and modulus:
// AVX2 has no 64-bit multiply, and modulus divides per lane anyway).
func vecRun(vals []Word, S int, op uint8, dst, dst2, a, b, c []int32) bool {
	if !useAVX2 {
		return false
	}
	cnt, stride := len(dst), S*8
	switch op {
	case opAdd:
		vecAddN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opSub:
		vecSubN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opAnd:
		vecAndN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opOr:
		vecOrN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opXor:
		vecXorN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opNot:
		vecNotN(&vals[0], &dst[0], &a[0], cnt, stride)
	case opEq:
		vecEqN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opLt:
		vecLtN(&vals[0], &dst[0], &a[0], &b[0], cnt, stride)
	case opMux:
		vecMuxN(&vals[0], &dst[0], &a[0], &b[0], &c[0], cnt, stride)
	case opLex:
		vecLexN(&vals[0], &dst[0], &a[0], &b[0], &c[0], cnt, stride)
	case opSwap:
		vecSwapN(&vals[0], &dst[0], &dst2[0], &a[0], &b[0], &c[0], cnt, stride)
	default:
		return false
	}
	return true
}

// The stride-1 kernels run blocks of 8 instructions, blocks > 0: slot
// indices gathered and scattered straight off the run's index arrays.

//go:noescape
func vec1AndN(vals *Word, dst, a, b *int32, blocks int)

//go:noescape
func vec1OrN(vals *Word, dst, a, b *int32, blocks int)

//go:noescape
func vec1XorN(vals *Word, dst, a, b *int32, blocks int)

//go:noescape
func vec1EqN(vals *Word, dst, a, b *int32, blocks int)

//go:noescape
func vec1LtN(vals *Word, dst, a, b *int32, blocks int)

//go:noescape
func vec1MuxN(vals *Word, dst, a, b, c *int32, blocks int)

//go:noescape
func vec1LexN(vals *Word, dst, a, b, c *int32, blocks int)

//go:noescape
func vec1SwapN(vals *Word, dst, dst2, a, b, c *int32, blocks int)

// vecRun1 runs the whole blocks of 8 of a run of n ≥ 8 instructions at
// a stride of one through its AVX-512 kernel and returns how many
// instructions it ran, leaving the tail to the scalar kernel. It runs
// none when the CPU lacks AVX-512 or the opcode has no stride-1 kernel
// (the served shapes are made of these eight). The run's index arrays
// start at dst, dst2, a, b and c; pointers rather than slices keep every
// argument in a register. The kernels index the slab without bounds
// checks: every slot of a compiled program is below its slot count,
// which the slab holds.
func vecRun1(vals *Word, op uint8, dst, dst2, a, b, c *int32, n int) int {
	if !useAVX512 {
		return 0
	}
	blocks := n / 8
	switch op {
	case opAnd:
		vec1AndN(vals, dst, a, b, blocks)
	case opOr:
		vec1OrN(vals, dst, a, b, blocks)
	case opXor:
		vec1XorN(vals, dst, a, b, blocks)
	case opEq:
		vec1EqN(vals, dst, a, b, blocks)
	case opLt:
		vec1LtN(vals, dst, a, b, blocks)
	case opMux:
		vec1MuxN(vals, dst, a, b, c, blocks)
	case opLex:
		vec1LexN(vals, dst, a, b, c, blocks)
	case opSwap:
		vec1SwapN(vals, dst, dst2, a, b, c, blocks)
	default:
		return 0
	}
	return blocks * 8
}
