package vm

import (
	"context"
	"encoding/binary"
	"testing"

	"circuitql/internal/boolcircuit"
)

// buildFuzzCircuit interprets data as a word-circuit construction
// program: each byte pair picks an operation and its operands over the
// wires built so far. The decoder is total — every byte string yields
// some valid circuit — so the fuzzer explores circuit shapes, not
// parser errors.
func buildFuzzCircuit(data []byte) (*boolcircuit.Circuit, int) {
	c := boolcircuit.New()
	nIn := 1
	if len(data) > 0 {
		nIn = 1 + int(data[0]%6)
		data = data[1:]
	}
	wires := c.Inputs(nIn)
	for len(data) >= 2 {
		op, sel := data[0], data[1]
		data = data[2:]
		pick := func(k byte) int { return wires[int(k)%len(wires)] }
		a, b := pick(sel), pick(sel>>4)
		var w int
		switch op % 17 {
		// Four arms aimed at Compile's peepholes: the two shapes it fuses,
		// and a near-miss of each that it must leave alone.
		case 13:
			w = c.Or(c.Lt(a, b), c.And(c.Eq(a, b), pick(op>>4)))
		case 14:
			// The Lt joins the wire pool: a later gate may read it, and it
			// may end up an output, either of which forbids the fusion.
			lt := c.Lt(a, b)
			wires = append(wires, lt)
			w = c.Or(lt, c.And(c.Eq(b, pick(op>>4)), a))
		case 15:
			wires = append(wires, c.Mux(pick(op>>4), a, b))
			w = c.Mux(pick(op>>4), b, a)
		case 16:
			wires = append(wires, c.Mux(pick(op>>4), a, b))
			w = c.Mux(pick(op>>5), b, a)
		case 0:
			w = c.Add(a, b)
		case 1:
			w = c.Sub(a, b)
		case 2:
			w = c.Mul(a, b)
		case 3:
			w = c.ModC(a, b)
		case 4:
			w = c.And(a, b)
		case 5:
			w = c.Or(a, b)
		case 6:
			w = c.Xor(a, b)
		case 7:
			w = c.Not(a)
		case 8:
			w = c.Eq(a, b)
		case 9:
			w = c.Lt(a, b)
		case 10:
			w = c.Mux(a, b, pick(op>>4))
		case 11:
			w = c.Const(int64(op)*257 - int64(sel))
		default:
			w = c.Mux(c.Eq(a, b), a, b)
		}
		wires = append(wires, w)
	}
	for i := 0; i < 4 && i < len(wires); i++ {
		c.MarkOutput(wires[len(wires)-1-i])
	}
	return c, nIn
}

// fuzzSeeds is FuzzVMCompile's seed corpus; the last three are built from
// the arms that emit the fused shapes and their near-misses.
var fuzzSeeds = []struct {
	data []byte
	seed int64
}{
	{[]byte{3, 0, 0x12, 1, 0x34, 10, 0x56, 11, 0x78, 2, 0x9a}, 1},
	{[]byte{1, 7, 0xff, 8, 0x01, 9, 0x10, 3, 0x23}, -12345},
	{[]byte{5, 12, 0x42, 12, 0x24, 4, 0x66, 5, 0x99, 6, 0xaa, 0, 0x55}, 1 << 40},
	{[]byte{2, 11, 0x00, 3, 0x01, 3, 0x10}, 0},
	{[]byte{4, 15, 0x21, 32, 0x03, 13, 0x10, 30, 0x32, 13, 0x54}, 7},
	{[]byte{3, 16, 0x21, 33, 0x12, 14, 0x10, 31, 0x20, 0, 0x43}, -3},
	{[]byte{6, 14, 0x81, 16, 0x9a, 15, 0x10, 13, 0x67, 49, 0x32, 47, 0x54}, 1 << 62},
}

// TestFuzzSeedsReachThePeepholes keeps the seed corpus from going stale:
// between them the seeds must make Compile fuse both shapes.
func TestFuzzSeedsReachThePeepholes(t *testing.T) {
	var swaps, lexes int
	for _, seed := range fuzzSeeds {
		c, _ := buildFuzzCircuit(seed.data)
		p, err := Compile(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		s, l := p.Fused()
		swaps, lexes = swaps+s, lexes+l
	}
	if swaps == 0 || lexes == 0 {
		t.Fatalf("the seed corpus fuses %d swaps and %d lex steps; it must reach both", swaps, lexes)
	}
}

// FuzzVMCompile pins the vectorized evaluator to the reference
// gate-walk interpreter: any circuit the builder can produce must
// compile to a program that passes validate and decodes from its
// encoding to itself, and EvalBatch must agree with
// boolcircuit.EvaluateCtx on every lane of a derived input batch — evaluated whole at a stride of 16
// (nine lanes), its first five lanes at a stride of 8, and its first
// lane alone at a stride of one.
func FuzzVMCompile(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed.data, seed.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		c, nIn := buildFuzzCircuit(data)
		prog, err := Compile(context.Background(), c)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if err := prog.validate(); err != nil {
			t.Fatalf("compiled program: %v", err)
		}
		if back, err := DecodeProgram(prog.Append(nil)); err != nil {
			t.Fatalf("the program's encoding does not decode: %v", err)
		} else if diff := ProgramDiff(back, prog); diff != "" {
			t.Fatalf("the decoded program differs in %s", diff)
		}
		inputs := make([][]Word, 9)
		want := make([][]Word, len(inputs))
		state := uint64(seed)
		for r := range inputs {
			inputs[r] = make([]Word, nIn)
			for i := range inputs[r] {
				// splitmix64 keeps lanes distinct and deterministic.
				state += 0x9e3779b97f4a7c15
				z := state
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				inputs[r][i] = int64(z ^ (z >> 31))
			}
			if want[r], err = c.EvaluateCtx(context.Background(), inputs[r]); err != nil {
				t.Fatalf("interp: %v", err)
			}
		}
		for _, B := range []int{1, 5, 9} {
			got, err := prog.EvalBatch(context.Background(), inputs[:B])
			if err != nil {
				t.Fatalf("EvalBatch of %d: %v", B, err)
			}
			for r := range got {
				for i := range want[r] {
					if got[r][i] != want[r][i] {
						t.Fatalf("batch of %d, lane %d output %d: vm=%d interp=%d (inputs %x)",
							B, r, i, got[r][i], want[r][i], binary.BigEndian.AppendUint64(nil, uint64(inputs[r][0])))
					}
				}
			}
		}
	})
}

// FuzzProgramDecode: DecodeProgram must never panic, and every program
// it accepts must run one EvalBatch of all-zero inputs at a batch of 1
// and of 8 without a fault. The vector kernels index the slab without
// bounds checks, so this is what holds validate to its purpose on bytes
// no compile emitted. The seeds are the encodings of FuzzVMCompile's
// seed programs, so mutations start from well-formed programs.
func FuzzProgramDecode(f *testing.F) {
	for _, seed := range fuzzSeeds {
		c, _ := buildFuzzCircuit(seed.data)
		p, err := Compile(context.Background(), c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Append(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		for _, batch := range []int{1, 8} {
			inputs := make([][]Word, batch)
			for r := range inputs {
				inputs[r] = make([]Word, p.NumInputs())
			}
			if _, err := p.EvalBatch(context.Background(), inputs); err != nil {
				t.Fatalf("accepted program fails a batch of %d: %v", batch, err)
			}
		}
	})
}
