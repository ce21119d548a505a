package opt_test

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/opt"
	"circuitql/internal/vm"
)

// FuzzSemSig feeds random circuit programs through semantic CSE and
// cross-checks the result against two independent evaluators: the
// reference interpreter and the vectorized vm on a random batch. Any
// prover rule that merges two inequivalent gates shows up as an output
// divergence here.
func FuzzSemSig(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 3, 0, 4})
	f.Add([]byte{3, 8, 1, 2, 0, 6, 3, 3, 0, 4, 4, 5, 0, 10, 2, 6, 1, 8, 0, 7, 0, 5, 3})
	f.Add([]byte{1, 11, 200, 7, 0, 3, 1, 2, 0, 9, 4, 5, 6, 2})
	// Bool-sandwich shape: Eq against const 0, Xor with const 1.
	f.Add([]byte{2, 8, 1, 0, 0, 11, 0, 0, 0, 8, 4, 5, 0, 6, 6, 7, 0, 4, 0, 8, 0, 5, 2})
	f.Add([]byte{4, 2, 1, 2, 0, 4, 3, 4, 0, 10, 5, 1, 2, 6, 0, 6, 0, 9, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := buildFuzzCircuit(data)
		o, _ := mustBoolSem(t, c, opt.SemConfig{})

		if o.NumInputs() != c.NumInputs() {
			t.Fatalf("input count changed: %d -> %d", c.NumInputs(), o.NumInputs())
		}
		if len(o.Outputs()) != len(c.Outputs()) {
			t.Fatalf("output count changed: %d -> %d", len(c.Outputs()), len(o.Outputs()))
		}
		if o.Size() > c.Size() || o.Depth() > c.Depth() {
			t.Fatalf("semantic CSE grew the circuit: %d/%d -> %d/%d gates/depth",
				c.Size(), c.Depth(), o.Size(), o.Depth())
		}

		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		const batch = 4
		inputs := make([][]vm.Word, batch)
		for bi := range inputs {
			in := make([]int64, c.NumInputs())
			for i := range in {
				if rng.Intn(2) == 0 {
					in[i] = int64(rng.Uint64())
				} else {
					in[i] = int64(rng.Intn(7)) - 3
				}
			}
			inputs[bi] = in
		}

		prog, err := vm.Compile(context.Background(), o)
		if err != nil {
			t.Fatalf("vm compile of optimized circuit: %v", err)
		}
		vmOut, err := prog.EvalBatch(context.Background(), inputs)
		if err != nil {
			t.Fatalf("vm eval: %v", err)
		}
		for bi, in := range inputs {
			want, err := c.Evaluate(in)
			if err != nil {
				t.Fatalf("original evaluate: %v", err)
			}
			got, err := o.Evaluate(in)
			if err != nil {
				t.Fatalf("optimized evaluate: %v", err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("batch %d output %d: original %d, interpreter %d (inputs %v)",
						bi, i, want[i], got[i], in)
				}
				if want[i] != vmOut[bi][i] {
					t.Fatalf("batch %d output %d: original %d, vm %d (inputs %v)",
						bi, i, want[i], vmOut[bi][i], in)
				}
			}
		}
	})
}
