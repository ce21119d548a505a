package vm

import (
	"math"
	"math/rand"
	"testing"
)

// TestLaneKernelsMatchScalar cross-checks every vector run kernel
// against the scalar run kernel on random and adversarial data, across
// strides of one, two and three 8-lane groups and run lengths from one
// instruction up. On amd64 with AVX2 this is the test that pins the
// assembly kernels' operand order and semantics.
func TestLaneKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	edge := []Word{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	ops := []struct {
		name string
		op   uint8
	}{
		{"add", opAdd}, {"sub", opSub}, {"and", opAnd}, {"or", opOr}, {"xor", opXor},
		{"not", opNot}, {"eq", opEq}, {"lt", opLt}, {"mux", opMux},
		{"lex", opLex}, {"swap", opSwap},
	}
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
				for _, k := range ops {
					copy(want, got)
					if !vecRun(got, S, k.op, dst, dst2, a, b, c) {
						t.Skip("no vector kernels on this platform or CPU")
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
