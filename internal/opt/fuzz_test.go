package opt_test

import (
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
)

// buildFuzzCircuit interprets data as a gate program: byte 0 picks the
// input count, then each 4-byte group appends one gate whose operands
// address earlier wires (mod the current size), and the trailing bytes
// mark outputs. Every byte string yields a well-formed circuit, so the
// fuzzer explores circuit space rather than a parser's error paths.
func buildFuzzCircuit(data []byte) *boolcircuit.Circuit {
	c := boolcircuit.New()
	if len(data) == 0 {
		data = []byte{0}
	}
	nin := 1 + int(data[0])%4
	for i := 0; i < nin; i++ {
		c.Input()
	}
	rest := data[1:]
	for len(rest) >= 4 && c.Size() < 96 {
		op, a, b, cc := rest[0], rest[1], rest[2], rest[3]
		rest = rest[4:]
		wa := int(a) % c.Size()
		wb := int(b) % c.Size()
		wc := int(cc) % c.Size()
		switch op % 12 {
		case 0:
			c.Add(wa, wb)
		case 1:
			c.Sub(wa, wb)
		case 2:
			c.Mul(wa, wb)
		case 3:
			c.ModC(wa, wb)
		case 4:
			c.And(wa, wb)
		case 5:
			c.Or(wa, wb)
		case 6:
			c.Xor(wa, wb)
		case 7:
			c.Not(wa)
		case 8:
			c.Eq(wa, wb)
		case 9:
			c.Lt(wa, wb)
		case 10:
			c.Mux(wa, wb, wc)
		case 11:
			// Signed constants, including negatives, to exercise the
			// folder's mod/lt sign handling.
			c.Const(int64(int8(a))*257 + int64(b))
		}
	}
	// Mark 1-3 outputs from the trailing bytes (an unmarked circuit is
	// all dead code and optimizes to its inputs, which is legal but
	// uninteresting).
	marked := 0
	for i := 0; i < len(rest) && marked < 3; i++ {
		c.MarkOutput(int(rest[i]) % c.Size())
		marked++
	}
	if marked == 0 {
		c.MarkOutput(c.Size() - 1)
	}
	return c
}

// FuzzOptimize feeds random circuits through opt.BoolCtx and checks the
// optimizer's contract: the input layout and output arity survive, the
// circuit never grows in size or depth, the output cone is well formed,
// the result is the one the old multi-pass loop produced
// (assertMatchesReference), and — on random input vectors — the
// optimized circuit computes exactly what the original did.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 3, 0, 4})
	f.Add([]byte{1, 11, 200, 7, 0, 3, 1, 2, 0, 9, 4, 5, 6, 2})
	f.Add([]byte{3, 10, 1, 2, 3, 6, 4, 4, 0, 7, 5, 0, 0, 1, 2})
	f.Add([]byte{0, 2, 1, 1, 0, 2, 4, 4, 0, 3, 5, 1, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := buildFuzzCircuit(data)
		o := mustBool(t, c)

		if o.NumInputs() != c.NumInputs() {
			t.Fatalf("input count changed: %d -> %d", c.NumInputs(), o.NumInputs())
		}
		if len(o.Outputs()) != len(c.Outputs()) {
			t.Fatalf("output count changed: %d -> %d", len(c.Outputs()), len(o.Outputs()))
		}
		if o.Size() > c.Size() {
			t.Fatalf("optimizer grew the circuit: %d -> %d gates", c.Size(), o.Size())
		}
		if o.Depth() > c.Depth() {
			t.Fatalf("optimizer deepened the circuit: %d -> %d", c.Depth(), o.Depth())
		}
		for _, w := range o.Outputs() {
			if w < 0 || w >= o.Size() {
				t.Fatalf("output wire %d outside circuit of %d gates", w, o.Size())
			}
		}

		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		assertMatchesReference(t, c, rng)
		for trial := 0; trial < 4; trial++ {
			in := make([]int64, c.NumInputs())
			for i := range in {
				// Mix full-range and small values: small ones make
				// Eq/Lt/Mod collisions likely, full-range ones make
				// wrap-around arithmetic likely.
				if rng.Intn(2) == 0 {
					in[i] = int64(rng.Uint64())
				} else {
					in[i] = int64(rng.Intn(7)) - 3
				}
			}
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
					t.Fatalf("trial %d output %d: original %d, optimized %d (inputs %v)",
						trial, i, want[i], got[i], in)
				}
			}
		}
	})
}
