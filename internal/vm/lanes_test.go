package vm

import (
	"math"
	"math/rand"
	"testing"
)

// laneOps are the opcodes with a vector kernel at a stride of 8 or more;
// the stride-1 kernels cover the last eight.
var laneOps = []struct {
	name    string
	op      uint8
	stride1 bool
}{
	{"add", opAdd, false}, {"sub", opSub, false}, {"not", opNot, false},
	{"and", opAnd, true}, {"or", opOr, true}, {"xor", opXor, true},
	{"eq", opEq, true}, {"lt", opLt, true}, {"mux", opMux, true},
	{"lex", opLex, true}, {"swap", opSwap, true},
}

// TestLaneKernelsMatchScalar cross-checks every vector run kernel
// against the scalar run kernel on random and adversarial data. On
// amd64 this is the test that pins the assembly kernels' operand order
// and semantics: the AVX2 ones (subtest strided) and the AVX-512
// stride-1 ones (subtest stride1). A subtest whose kernels the CPU
// cannot run says so in its skip message.
func TestLaneKernelsMatchScalar(t *testing.T) {
	t.Run("strided", laneKernelsStrided)
	t.Run("stride1", laneKernelsStride1)
}

// laneKernelsStrided runs the AVX2 kernels at strides of one, two and
// three 8-lane groups and run lengths from one instruction up.
func laneKernelsStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	edge := []Word{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	// Operands come from the lower half of the slots and destinations
	// (two an instruction, the second used by swap alone) from the upper
	// half, as in a compiled level: no instruction of a run reads what
	// another writes.
	const slots = 96
	for _, S := range []int{8, 16, 24} {
		for _, n := range []int{1, 2, 5, 24} {
			dst, dst2 := make([]int32, n), make([]int32, n)
			a, b, c := make([]int32, n), make([]int32, n), make([]int32, n)
			got, want := make([]Word, slots*S), make([]Word, slots*S)
			for trial := 0; trial < 20; trial++ {
				for i := range got {
					if rng.Intn(4) == 0 {
						got[i] = edge[rng.Intn(len(edge))]
					} else {
						got[i] = Word(rng.Uint64())
					}
				}
				perm := rng.Perm(slots / 2)
				for i := range dst {
					dst[i], dst2[i] = int32(slots/2+perm[2*i]), int32(slots/2+perm[2*i+1])
					a[i], b[i], c[i] = int32(rng.Intn(slots/2)), int32(rng.Intn(slots/2)), int32(rng.Intn(slots/2))
					// Make sure eq and lex see genuine equalities and mux
					// and swap both kinds of condition: copy half of a's
					// lanes into b, zero half of c's. The other lanes of c
					// are random words, almost never 0 or 1.
					for l := 0; l < S; l += 2 {
						got[int(b[i])*S+l] = got[int(a[i])*S+l]
						got[int(c[i])*S+l+1] = 0
					}
				}
				for _, k := range laneOps {
					copy(want, got)
					if !vecRun(got, S, k.op, dst, dst2, a, b, c) {
						t.Skip("no AVX2 kernels on this platform or CPU: every stride above one runs the scalar kernel lane by lane")
					}
					stridedRun(want, S, k.op, dst, dst2, a, b, c)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("S=%d n=%d %s: slot %d lane %d: vector=%d, scalar=%d",
								S, n, k.name, i/S, i%S, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// laneKernelsStride1 runs the stride-1 kernels, through execRun's own
// split (vecRun1 for the whole blocks of 8, scalarRun for the tail),
// against scalarRun alone over the whole run, at every run length from 1
// to 17, at 31-33 and at 511-512, on adversarial words: extremes, small
// values that collide, and conditions that are neither 0 nor 1. Both of
// swap's destinations are compared with every other slot of the slab.
func laneKernelsStride1(t *testing.T) {
	// Operands come from the lower half of the slab, and each instruction's
	// two destinations (dst2 read by swap alone) from the upper half.
	const half = 2 * pollStep
	got, want := make([]Word, 2*half), make([]Word, 2*half)
	var idx [8]int32
	if vecRun1(&got[0], opAnd, &idx[0], &idx[0], &idx[0], &idx[0], &idx[0], len(idx)) == 0 {
		t.Skip("no AVX-512F+VL on this platform or CPU: a batch of one runs every instruction through the scalar kernel")
	}
	rng := rand.New(rand.NewSource(78))
	var lengths []int
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 31, 32, 33, 511, 512)
	for _, n := range lengths {
		dst, dst2 := make([]int32, n), make([]int32, n)
		a, b, c := make([]int32, n), make([]int32, n), make([]int32, n)
		for trial := 0; trial < 8; trial++ {
			for i := range got {
				got[i] = adversarialWord(rng)
			}
			perm := rng.Perm(half)
			for i := range dst {
				dst[i], dst2[i] = int32(half+perm[2*i]), int32(half+perm[2*i+1])
				a[i], b[i], c[i] = int32(rng.Intn(half)), int32(rng.Intn(half)), int32(rng.Intn(half))
			}
			for _, k := range laneOps {
				if !k.stride1 {
					continue
				}
				copy(want, got)
				ran := 0
				if n >= 8 {
					ran = vecRun1(&got[0], k.op, &dst[0], &dst2[0], &a[0], &b[0], &c[0], n)
				}
				if ran != n&^7 {
					t.Fatalf("n=%d %s: the stride-1 kernel ran %d instructions, want the whole blocks of 8, %d", n, k.name, ran, n&^7)
				}
				scalarRun(got, k.op, dst[ran:], dst2[ran:], a[ran:], b[ran:], c[ran:])
				scalarRun(want, k.op, dst, dst2, a, b, c)
				for s := range got {
					if got[s] != want[s] {
						t.Fatalf("n=%d %s: slot %d: vector=%d, scalar=%d", n, k.name, s, got[s], want[s])
					}
				}
			}
		}
	}
}
