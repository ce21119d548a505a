//go:build amd64

package vm

import (
	"math/rand"
	"testing"
)

// TestVMWithoutAVX2 runs the differential checks with the vector kernels
// switched off, so the path a CPU without AVX2 takes at a stride above
// one — every run through the scalar kernel, lane by lane — is executed
// on a runner that has AVX2, fused opcodes included.
func TestVMWithoutAVX2(t *testing.T) {
	if !useAVX2 {
		t.Skip("the whole suite already runs without AVX2 on this CPU")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(5))
	for _, B := range []int{1, 5, 16} {
		c := allOpsCircuit()
		checkAgainstInterp(t, c, randInputs(rng, c.NumInputs(), B))
		for seed := int64(0); seed < 10; seed++ {
			c := randomCircuit(rand.New(rand.NewSource(seed)), 1+rng.Intn(6), 1+rng.Intn(200))
			checkAgainstInterp(t, c, randInputs(rng, c.NumInputs(), B))
		}
	}
	// The fused opcodes have no per-lane fallback of their own: without
	// their vector kernels they go through stridedRun like the rest.
	checkPeephole(t)
	checkCatalog(t)
}
