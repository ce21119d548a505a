//go:build amd64

#include "textflag.h"

// AVX2 run kernels: one call per same-op instruction run. The outer
// loop walks the run's slot-index arrays (dst/a/b[/c], int32 each) and
// resolves lane base addresses with one 32-bit load and one multiply
// per operand; the inner loop streams the lanes 4 per ymm register,
// unrolled 2x, with no tail (stride is a multiple of 64 bytes). Loads
// and stores are unaligned (VMOVDQU); the slabs come from the Go heap
// with no alignment guarantee beyond 8 bytes.
//
// All macros are defined up here, before the first TEXT block, so that
// vet's asmdecl checker does not attribute their FP references to
// whichever function happens to precede them. Label names are macro
// arguments because this assembler's preprocessor has no token pasting.

// BINOPN: two-source kernel skeleton, the op applied as Y1 op Y0 -> Y0
// (and Y3 op Y2 -> Y2).
#define BINOPN(OP, linstr, llane)       \
	MOVQ vals+0(FP), R10            \
	MOVQ dst+8(FP), DI              \
	MOVQ a+16(FP), SI               \
	MOVQ b+24(FP), DX               \
	MOVQ cnt+32(FP), CX             \
	MOVQ stride+40(FP), R11         \
	MOVQ R11, R8                    \
	SHRQ $6, R8                     \
linstr:                                 \
	MOVL (DI), R12                  \
	IMULQ R11, R12                  \
	ADDQ R10, R12                   \
	MOVL (SI), R13                  \
	IMULQ R11, R13                  \
	ADDQ R10, R13                   \
	MOVL (DX), R14                  \
	IMULQ R11, R14                  \
	ADDQ R10, R14                   \
	MOVQ R8, R9                     \
llane:                                  \
	VMOVDQU (R13), Y0               \
	VMOVDQU 32(R13), Y2             \
	VMOVDQU (R14), Y1               \
	VMOVDQU 32(R14), Y3             \
	OP      Y1, Y0, Y0              \
	OP      Y3, Y2, Y2              \
	VMOVDQU Y0, (R12)               \
	VMOVDQU Y2, 32(R12)             \
	ADDQ    $64, R13                \
	ADDQ    $64, R14                \
	ADDQ    $64, R12                \
	DECQ    R9                      \
	JNZ     llane                   \
	ADDQ $4, DI                     \
	ADDQ $4, SI                     \
	ADDQ $4, DX                     \
	DECQ CX                         \
	JNZ  linstr                     \
	VZEROUPPER                      \
	RET

// CMPOPN: comparison kernels; all-ones lane masks shifted to 0/1
// before the store. SRCA/SRCB (and the unrolled SRCA2/SRCB2) pick the
// comparand order: a in Y0/Y2, b in Y1/Y3.
#define CMPOPN(CMP, SRCA, SRCB, SRCA2, SRCB2, linstr, llane) \
	MOVQ vals+0(FP), R10            \
	MOVQ dst+8(FP), DI              \
	MOVQ a+16(FP), SI               \
	MOVQ b+24(FP), DX               \
	MOVQ cnt+32(FP), CX             \
	MOVQ stride+40(FP), R11         \
	MOVQ R11, R8                    \
	SHRQ $6, R8                     \
linstr:                                 \
	MOVL (DI), R12                  \
	IMULQ R11, R12                  \
	ADDQ R10, R12                   \
	MOVL (SI), R13                  \
	IMULQ R11, R13                  \
	ADDQ R10, R13                   \
	MOVL (DX), R14                  \
	IMULQ R11, R14                  \
	ADDQ R10, R14                   \
	MOVQ R8, R9                     \
llane:                                  \
	VMOVDQU (R13), Y0               \
	VMOVDQU 32(R13), Y2             \
	VMOVDQU (R14), Y1               \
	VMOVDQU 32(R14), Y3             \
	CMP     SRCA, SRCB, Y4          \
	CMP     SRCA2, SRCB2, Y5        \
	VPSRLQ  $63, Y4, Y4             \
	VPSRLQ  $63, Y5, Y5             \
	VMOVDQU Y4, (R12)               \
	VMOVDQU Y5, 32(R12)             \
	ADDQ    $64, R13                \
	ADDQ    $64, R14                \
	ADDQ    $64, R12                \
	DECQ    R9                      \
	JNZ     llane                   \
	ADDQ $4, DI                     \
	ADDQ $4, SI                     \
	ADDQ $4, DX                     \
	DECQ CX                         \
	JNZ  linstr                     \
	VZEROUPPER                      \
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	// ECX bit 27: OSXSAVE, bit 28: AVX.
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  no
	// XCR0 bits 1+2: OS saves xmm and ymm state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	// CPUID leaf 7 EBX bit 5: AVX2.
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func vecAddN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecAddN(SB), NOSPLIT, $0-48
	BINOPN(VPADDQ, addninstr, addnlane)

// func vecSubN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecSubN(SB), NOSPLIT, $0-48
	BINOPN(VPSUBQ, subninstr, subnlane)

// func vecAndN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecAndN(SB), NOSPLIT, $0-48
	BINOPN(VPAND, andninstr, andnlane)

// func vecOrN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecOrN(SB), NOSPLIT, $0-48
	BINOPN(VPOR, orninstr, ornlane)

// func vecXorN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecXorN(SB), NOSPLIT, $0-48
	BINOPN(VPXOR, xorninstr, xornlane)

// func vecNotN(vals *Word, dst, a *int32, cnt, stride int)
TEXT ·vecNotN(SB), NOSPLIT, $0-40
	MOVQ     vals+0(FP), R10
	MOVQ     dst+8(FP), DI
	MOVQ     a+16(FP), SI
	MOVQ     cnt+24(FP), CX
	MOVQ     stride+32(FP), R11
	MOVQ     R11, R8
	SHRQ     $6, R8
	VPCMPEQD Y15, Y15, Y15 // all ones

notninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  R10, R12
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  R10, R13
	MOVQ  R8, R9

notnlane:
	VMOVDQU (R13), Y0
	VMOVDQU 32(R13), Y2
	VPXOR   Y15, Y0, Y0
	VPXOR   Y15, Y2, Y2
	VMOVDQU Y0, (R12)
	VMOVDQU Y2, 32(R12)
	ADDQ    $64, R13
	ADDQ    $64, R12
	DECQ    R9
	JNZ     notnlane
	ADDQ    $4, DI
	ADDQ    $4, SI
	DECQ    CX
	JNZ     notninstr
	VZEROUPPER
	RET

// func vecEqN(vals *Word, dst, a, b *int32, cnt, stride int)
TEXT ·vecEqN(SB), NOSPLIT, $0-48
	CMPOPN(VPCMPEQQ, Y1, Y0, Y3, Y2, eqninstr, eqnlane)

// func vecLtN(vals *Word, dst, a, b *int32, cnt, stride int)
//
// Signed a < b is b > a: VPCMPGTQ with b as first comparand (this
// assembler's operand order is src2, src1, dst with dst = src1 > src2).
TEXT ·vecLtN(SB), NOSPLIT, $0-48
	CMPOPN(VPCMPGTQ, Y0, Y1, Y2, Y3, ltninstr, ltnlane)

// func vecMuxN(vals *Word, dst, a, b, c *int32, cnt, stride int)
//
// dst = c != 0 ? a : b, per lane, per instruction. The c==0 compare
// produces an all-ones/all-zero 64-bit lane mask, so VPBLENDVB (which
// keys on each byte's high bit) selects whole lanes: b where c == 0, a
// elsewhere.
TEXT ·vecMuxN(SB), NOSPLIT, $0-56
	MOVQ  vals+0(FP), R10
	MOVQ  dst+8(FP), DI
	MOVQ  a+16(FP), SI
	MOVQ  b+24(FP), DX
	MOVQ  c+32(FP), BX
	MOVQ  cnt+40(FP), CX
	MOVQ  stride+48(FP), R11
	MOVQ  R11, R8
	SHRQ  $6, R8
	VPXOR Y15, Y15, Y15 // zero

muxninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  R10, R12
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  R10, R13
	MOVL  (DX), R14
	IMULQ R11, R14
	ADDQ  R10, R14
	MOVL  (BX), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	MOVQ  R8, R9

muxnlane:
	VMOVDQU   (AX), Y4
	VMOVDQU   32(AX), Y5
	VPCMPEQQ  Y15, Y4, Y4 // all-ones where c == 0
	VPCMPEQQ  Y15, Y5, Y5
	VMOVDQU   (R13), Y0
	VMOVDQU   32(R13), Y2
	VMOVDQU   (R14), Y1
	VMOVDQU   32(R14), Y3
	VPBLENDVB Y4, Y1, Y0, Y0 // b where mask, else a
	VPBLENDVB Y5, Y3, Y2, Y2
	VMOVDQU   Y0, (R12)
	VMOVDQU   Y2, 32(R12)
	ADDQ      $64, R13
	ADDQ      $64, R14
	ADDQ      $64, AX
	ADDQ      $64, R12
	DECQ      R9
	JNZ       muxnlane
	ADDQ $4, DI
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  muxninstr
	VZEROUPPER
	RET

// func vecLexN(vals *Word, dst, a, b, c *int32, cnt, stride int)
//
// dst = (a < b) | (a == b) & c, per lane, per instruction: one step of a
// lexicographic compare with c the verdict of the less significant words.
// The two compares give all-ones/all-zero lane masks; (lt | eq & c) & 1
// is then 1 where a < b and c's bit 0 where a == b, which is what the
// four gates compute for any word c.
TEXT ·vecLexN(SB), NOSPLIT, $0-56
	MOVQ     vals+0(FP), R10
	MOVQ     dst+8(FP), DI
	MOVQ     a+16(FP), SI
	MOVQ     b+24(FP), DX
	MOVQ     c+32(FP), BX
	MOVQ     cnt+40(FP), CX
	MOVQ     stride+48(FP), R11
	MOVQ     R11, R8
	SHRQ     $6, R8
	VPCMPEQD Y15, Y15, Y15
	VPSRLQ   $63, Y15, Y15 // 1 in every lane

lexninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  R10, R12
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  R10, R13
	MOVL  (DX), R14
	IMULQ R11, R14
	ADDQ  R10, R14
	MOVL  (BX), AX
	IMULQ R11, AX
	ADDQ  R10, AX
	MOVQ  R8, R9

lexnlane:
	VMOVDQU  (R13), Y0
	VMOVDQU  32(R13), Y2
	VMOVDQU  (R14), Y1
	VMOVDQU  32(R14), Y3
	VPCMPEQQ Y1, Y0, Y4 // a == b
	VPCMPEQQ Y3, Y2, Y5
	VPCMPGTQ Y0, Y1, Y6 // b > a
	VPCMPGTQ Y2, Y3, Y7
	VPAND    (AX), Y4, Y4
	VPAND    32(AX), Y5, Y5
	VPOR     Y6, Y4, Y4
	VPOR     Y7, Y5, Y5
	VPAND    Y15, Y4, Y4
	VPAND    Y15, Y5, Y5
	VMOVDQU  Y4, (R12)
	VMOVDQU  Y5, 32(R12)
	ADDQ     $64, R13
	ADDQ     $64, R14
	ADDQ     $64, AX
	ADDQ     $64, R12
	DECQ     R9
	JNZ      lexnlane
	ADDQ $4, DI
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  lexninstr
	VZEROUPPER
	RET

// func vecSwapN(vals *Word, dst, dst2, a, b, c *int32, cnt, stride int)
//
// dst = c != 0 ? a : b and dst2 = c != 0 ? b : a, per lane, per
// instruction: vecMuxN's zero-mask of the condition, blended both ways.
// Five lane bases need the registers the other kernels spend on the slab
// pointer and the lane count: the slab pointer is added from its argument
// slot, and one lane offset (R9, 0 up to the stride) runs under all five.
TEXT ·vecSwapN(SB), NOSPLIT, $0-64
	MOVQ  dst+8(FP), DI
	MOVQ  dst2+16(FP), R8
	MOVQ  a+24(FP), SI
	MOVQ  b+32(FP), DX
	MOVQ  c+40(FP), BX
	MOVQ  cnt+48(FP), CX
	MOVQ  stride+56(FP), R11
	VPXOR Y15, Y15, Y15 // zero

swapninstr:
	MOVL  (DI), R12
	IMULQ R11, R12
	ADDQ  vals+0(FP), R12
	MOVL  (R8), R10
	IMULQ R11, R10
	ADDQ  vals+0(FP), R10
	MOVL  (SI), R13
	IMULQ R11, R13
	ADDQ  vals+0(FP), R13
	MOVL  (DX), R14
	IMULQ R11, R14
	ADDQ  vals+0(FP), R14
	MOVL  (BX), AX
	IMULQ R11, AX
	ADDQ  vals+0(FP), AX
	XORQ  R9, R9

swapnlane:
	VMOVDQU   (AX)(R9*1), Y4
	VMOVDQU   32(AX)(R9*1), Y5
	VPCMPEQQ  Y15, Y4, Y4 // all-ones where c == 0
	VPCMPEQQ  Y15, Y5, Y5
	VMOVDQU   (R13)(R9*1), Y0
	VMOVDQU   32(R13)(R9*1), Y2
	VMOVDQU   (R14)(R9*1), Y1
	VMOVDQU   32(R14)(R9*1), Y3
	VPBLENDVB Y4, Y1, Y0, Y6 // b where mask, else a
	VPBLENDVB Y5, Y3, Y2, Y7
	VPBLENDVB Y4, Y0, Y1, Y8 // a where mask, else b
	VPBLENDVB Y5, Y2, Y3, Y9
	VMOVDQU   Y6, (R12)(R9*1)
	VMOVDQU   Y7, 32(R12)(R9*1)
	VMOVDQU   Y8, (R10)(R9*1)
	VMOVDQU   Y9, 32(R10)(R9*1)
	ADDQ      $64, R9
	CMPQ      R9, R11
	JB        swapnlane
	ADDQ $4, DI
	ADDQ $4, R8
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  swapninstr
	VZEROUPPER
	RET
