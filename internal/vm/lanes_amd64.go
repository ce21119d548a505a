//go:build amd64

package vm

// AVX2 run kernels. The Go compiler does not auto-vectorize, so without
// them the lock-step inner loop runs at scalar throughput and batching
// on one core buys little.
//
// Detection is done once at package init: AVX2 requires the cpuid
// feature bit, the AVX bit, and OS support for saving ymm state
// (OSXSAVE + XCR0), all checked in assembly.

var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU and OS support AVX2 execution.
func cpuHasAVX2() bool

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
