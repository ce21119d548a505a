package opt_test

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/opt"
)

// buildFuzzCircuit interprets data as a gate program: byte 0 picks the
// input count, then each 4-byte group appends one gate whose operands
// address earlier wires (mod the current size), and the trailing bytes
// mark outputs. Every byte string yields a well-formed circuit, so the
// fuzzer explores circuit space rather than a parser's error paths.
//
// The program is run twice: raw comes out of the paper's builder, and
// every call made on it, those for gates that end up dead included, is
// also made on a rewriting builder, on the wires that stand there for
// the same operands — which is how the lowering of a served compile
// drives that builder.
func buildFuzzCircuit(data []byte) (raw, rewritten *boolcircuit.Circuit) {
	raw, rewritten = boolcircuit.New(), boolcircuit.NewRewriting()
	if len(data) == 0 {
		data = []byte{0}
	}
	var m []int // the wire of rewritten that stands for each gate of raw
	nin := 1 + int(data[0])%4
	for i := 0; i < nin; i++ {
		raw.Input()
		m = append(m, rewritten.Input())
	}
	rest := data[1:]
	for len(rest) >= 4 && raw.Size() < 96 {
		op, a, b, cc := rest[0], rest[1], rest[2], rest[3]
		rest = rest[4:]
		wa := int(a) % raw.Size()
		wb := int(b) % raw.Size()
		wc := int(cc) % raw.Size()
		id := fuzzGate(raw, op, wa, wb, wc, a, b)
		w := fuzzGate(rewritten, op, m[wa], m[wb], m[wc], a, b)
		if id == len(m) { // not a gate raw already had
			m = append(m, w)
		}
	}
	// Mark 1-3 outputs from the trailing bytes (an unmarked circuit is
	// all dead code and optimizes to its inputs, which is legal but
	// uninteresting).
	marked := 0
	for i := 0; i < len(rest) && marked < 3; i++ {
		o := int(rest[i]) % raw.Size()
		raw.MarkOutput(o)
		rewritten.MarkOutput(m[o])
		marked++
	}
	if marked == 0 {
		raw.MarkOutput(raw.Size() - 1)
		rewritten.MarkOutput(m[raw.Size()-1])
	}
	return raw, rewritten
}

// fuzzGate asks c for the gate one program step names.
func fuzzGate(c *boolcircuit.Circuit, op byte, wa, wb, wc int, a, b byte) int {
	switch op % 12 {
	case 0:
		return c.Add(wa, wb)
	case 1:
		return c.Sub(wa, wb)
	case 2:
		return c.Mul(wa, wb)
	case 3:
		return c.ModC(wa, wb)
	case 4:
		return c.And(wa, wb)
	case 5:
		return c.Or(wa, wb)
	case 6:
		return c.Xor(wa, wb)
	case 7:
		return c.Not(wa)
	case 8:
		return c.Eq(wa, wb)
	case 9:
		return c.Lt(wa, wb)
	case 10:
		return c.Mux(wa, wb, wc)
	default:
		// Signed constants, including negatives, to exercise the
		// folder's mod/lt sign handling.
		return c.Const(int64(int8(a))*257 + int64(b))
	}
}

// FuzzOptimize feeds random circuits through both drivers of the rewrite
// table.
//
// The replay driver, opt.BoolCtx, is held to the optimizer's contract:
// the input layout and output arity survive, the circuit never grows in
// size or depth, the output cone is well formed, the result is the one
// the old multi-pass loop produced (assertMatchesReference), and — on
// random input vectors — the optimized circuit computes exactly what the
// original did.
//
// The builder-time driver, the same program built through the rewriting
// builder and swept, must compute what the raw circuit's interpreter
// computes, come out at the size and depth of replaying the raw circuit
// (BoolCtx before its adoption rule), and be a fixpoint of BoolCtx.
// Gate-for-gate equality with the replay is not required of random
// circuits, and does not hold: a gate that is dead in the raw circuit is
// never replayed, but the builder builds it, and a live gate that
// rewrites to the same node then finds it at the dead gate's earlier
// position — the ids are permuted, the structure is not
// (TestBoolMatchesMultiPassReference asks for the exact form on the
// catalog and lists the case where the same thing happens there).
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 3, 0, 4})
	f.Add([]byte{1, 11, 200, 7, 0, 3, 1, 2, 0, 9, 4, 5, 6, 2})
	f.Add([]byte{3, 10, 1, 2, 3, 6, 4, 4, 0, 7, 5, 0, 0, 1, 2})
	f.Add([]byte{0, 2, 1, 1, 0, 2, 4, 4, 0, 3, 5, 1, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, rewritten := buildFuzzCircuit(data)
		o := mustBool(t, c)
		built, err := rewritten.Prune(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertSameInterface(t, "built rewriting", built, "raw", c)
		replayed, err := opt.Replay(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if replayed, err = replayed.Prune(context.Background()); err != nil {
			t.Fatal(err)
		}
		if built.Size() != replayed.Size() || built.Depth() != replayed.Depth() {
			t.Fatalf("built rewriting: %d gates, depth %d; the raw circuit replayed: %d gates, depth %d",
				built.Size(), built.Depth(), replayed.Size(), replayed.Depth())
		}
		again, err := opt.Replay(context.Background(), built)
		if err != nil {
			t.Fatal(err)
		}
		if again, err = again.Prune(context.Background()); err != nil {
			t.Fatal(err)
		}
		assertSameCircuit(t, "optimized again", again, "built rewriting", built)
		if mustBool(t, built) != built {
			t.Fatal("BoolCtx adopted another circuit over one the rewriting builder built")
		}

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
			want, err := c.EvaluateCtx(context.Background(), in)
			if err != nil {
				t.Fatalf("original evaluate: %v", err)
			}
			for name, oc := range map[string]*boolcircuit.Circuit{"optimized": o, "built rewriting": built} {
				got, err := oc.EvaluateCtx(context.Background(), in)
				if err != nil {
					t.Fatalf("%s evaluate: %v", name, err)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("trial %d output %d: original %d, %s %d (inputs %v)",
							trial, i, want[i], name, got[i], in)
					}
				}
			}
		}
	})
}
