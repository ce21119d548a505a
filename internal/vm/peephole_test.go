package vm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
)

// peepholeCases are circuits over six inputs that the two matchers of
// Compile must fuse exactly, or refuse. Each names how many swaps and lex
// steps the program must hold; checkPeephole then holds every output word
// to the interpreter on adversarial inputs, so a matcher that fuses a
// shape it should have refused — and thereby drops a gate something still
// reads, or reads the wrong wires — computes a wrong answer here.
var peepholeCases = []struct {
	name         string
	swaps, lexes int
	build        func(c *boolcircuit.Circuit, in []int)
}{
	// Lexicographic step: Or(Lt(a,b), And(Eq(a,b), acc)).
	{"lex", 0, 1, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(c.Eq(in[0], in[1]), in[2])))
	}},
	{"lex, every operand order reversed", 0, 1, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.And(in[2], c.Eq(in[1], in[0])), c.Lt(in[0], in[1])))
	}},
	{"lex, Eq's operands in the other order than Lt's", 0, 1, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(c.Eq(in[1], in[0]), in[2])))
	}},
	{"lex over Gt, the valid-first step", 0, 1, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.Gt(in[0], in[1]), c.And(c.Eq(in[0], in[1]), in[2])))
	}},
	{"lex chain of three, as sortnet.KeyLess writes it", 0, 3, func(c *boolcircuit.Circuit, in []int) {
		acc := c.Const(0)
		for i := 0; i < 3; i++ {
			acc = c.Or(c.Lt(in[i], in[i+3]), c.And(c.Eq(in[i], in[i+3]), acc))
		}
		c.MarkOutput(acc)
	}},
	{"lex whose acc is the Eq of another pair", 0, 1, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(c.Eq(in[0], in[1]), c.Eq(in[2], in[3]))))
	}},
	{"lex refused: the Lt has a second reader", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		lt := c.Lt(in[0], in[1])
		c.MarkOutput(c.Or(lt, c.And(c.Eq(in[0], in[1]), in[2])))
		c.MarkOutput(c.Add(lt, in[3]))
	}},
	{"lex refused: the And has a second reader", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		and := c.And(c.Eq(in[0], in[1]), in[2])
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), and))
		c.MarkOutput(c.Xor(and, in[3]))
	}},
	{"lex refused: the Eq has a second reader", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		eq := c.Eq(in[0], in[1])
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(eq, in[2])))
		c.MarkOutput(c.Sub(in[3], eq))
	}},
	{"lex refused: the Eq is read twice by the And", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		eq := c.Eq(in[0], in[1])
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(eq, eq)))
	}},
	{"lex refused: the Lt is also acc", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		lt := c.Lt(in[0], in[1])
		c.MarkOutput(c.Or(lt, c.And(c.Eq(in[0], in[1]), lt)))
	}},
	{"lex refused: the Lt is an output", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		lt := c.Lt(in[0], in[1])
		c.MarkOutput(c.Or(lt, c.And(c.Eq(in[0], in[1]), in[2])))
		c.MarkOutput(lt)
	}},
	{"lex refused: the And is an output", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		and := c.And(c.Eq(in[0], in[1]), in[2])
		c.MarkOutput(and)
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), and))
	}},
	{"lex refused: the Eq is an output", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		eq := c.Eq(in[0], in[1])
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(eq, in[2])))
		c.MarkOutput(eq)
	}},
	{"lex refused: the Eq is over another pair", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.And(c.Eq(in[0], in[3]), in[2])))
	}},
	{"lex refused: an Xor where the And should be", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Or(c.Lt(in[0], in[1]), c.Xor(c.Eq(in[0], in[1]), in[2])))
	}},

	// Conditional swap: Mux(c,a,b) next to Mux(c,b,a).
	{"swap", 1, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[0], in[2], in[1]))
	}},
	{"swap whose halves are both read again", 1, 0, func(c *boolcircuit.Circuit, in []int) {
		lo, hi := c.Mux(in[0], in[1], in[2]), c.Mux(in[0], in[2], in[1])
		c.MarkOutput(c.Sub(lo, hi))
		c.MarkOutput(c.Mul(hi, in[3]))
	}},
	{"swap on the verdict of a lex step, one compare-exchange", 1, 1, func(c *boolcircuit.Circuit, in []int) {
		less := c.Or(c.Lt(in[0], in[1]), c.And(c.Eq(in[0], in[1]), in[2]))
		c.MarkOutput(c.Mux(less, in[3], in[4]))
		c.MarkOutput(c.Mux(less, in[4], in[3]))
	}},
	{"swap across a MUX of a deeper level built between the halves", 1, 0, func(c *boolcircuit.Circuit, in []int) {
		deep := c.Add(in[3], in[4])
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[0], deep, in[5])) // level 2: not in level 1's list
		c.MarkOutput(c.Mux(in[0], in[2], in[1]))
	}},
	{"swap across a dead MUX built between the halves", 1, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.Mux(in[3], in[4], in[5])
		c.MarkOutput(c.Mux(in[0], in[2], in[1]))
	}},
	{"swap refused: two pairs interleaved, so neither's halves are neighbours", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[3], in[4], in[5]))
		c.MarkOutput(c.Mux(in[0], in[2], in[1]))
		c.MarkOutput(c.Mux(in[3], in[5], in[4]))
	}},
	{"swap refused: different conditions", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[3], in[2], in[1]))
	}},
	{"swap refused: arms not crossed", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[0], in[1], in[3]))
	}},
	{"swap refused: one arm crossed, the other a different wire", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[0], in[2], in[3]))
	}},
	{"swap refused: the crossed arm sits a level deeper", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.MarkOutput(c.Mux(in[0], in[2], c.Add(in[1], c.Const(0))))
	}},
	{"swap refused: one half is dead", 0, 0, func(c *boolcircuit.Circuit, in []int) {
		c.MarkOutput(c.Mux(in[0], in[1], in[2]))
		c.Mux(in[0], in[2], in[1])
	}},
}

// adversarialWord draws one of the values the fused kernels could get
// wrong: extremes, small equal-prone values, and words that are neither 0
// nor 1 where a gate expects a truth value.
func adversarialWord(rng *rand.Rand) Word {
	edge := [...]Word{0, 1, -1, 2, 6, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	return edge[rng.Intn(len(edge))]
}

// adversarialInputs returns B input vectors of width n of such words.
func adversarialInputs(rng *rand.Rand, n, B int) [][]Word {
	out := make([][]Word, B)
	for r := range out {
		out[r] = make([]Word, n)
		for i := range out[r] {
			out[r][i] = adversarialWord(rng)
		}
	}
	return out
}

// checkPeephole runs every case at a stride of one and of 8 through
// whichever kernels the platform (or the caller's useAVX2 override)
// selects.
func checkPeephole(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	for _, tc := range peepholeCases {
		c := boolcircuit.New()
		tc.build(c, c.Inputs(6))
		p, err := Compile(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if swaps, lexes := p.Fused(); swaps != tc.swaps || lexes != tc.lexes {
			t.Errorf("%s: fused %d swaps and %d lex steps, want %d and %d", tc.name, swaps, lexes, tc.swaps, tc.lexes)
		}
		for _, B := range []int{1, 5} {
			for trial := 0; trial < 40; trial++ {
				checkAgainstInterp(t, c, adversarialInputs(rng, 6, B))
			}
		}
	}
}

func TestVMPeephole(t *testing.T) { checkPeephole(t) }

// TestVMPeepholeRelevels: a fused step sits where its inputs allow, not
// where its OR sat, and the levels it vacates disappear.
func TestVMPeepholeRelevels(t *testing.T) {
	c := boolcircuit.New()
	in := c.Inputs(6)
	acc := c.Const(0)
	for i := 0; i < 3; i++ {
		acc = c.Or(c.Lt(in[i], in[i+3]), c.And(c.Eq(in[i], in[i+3]), acc))
	}
	c.MarkOutput(acc)
	p, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 7 || p.Levels() != 3 || p.Instructions() != 3 {
		t.Fatalf("three chained steps: circuit depth %d, program %d levels of %d instructions; want 7, 3, 3", c.Depth(), p.Levels(), p.Instructions())
	}
}

// TestVMWideSwapLevel: a level of more swaps than one run holds is split
// like any other opcode's, and stays exact. (Pairs are found in the gate
// list, before runs exist, so no run boundary can fall inside one.)
func TestVMWideSwapLevel(t *testing.T) {
	const pairs = pollStep + 88
	c := boolcircuit.New()
	in := c.Inputs(3)
	for i := 0; i < pairs; i++ {
		k := c.Const(int64(i) - 7)
		c.MarkOutput(c.Mux(in[0], in[1], k))
		c.MarkOutput(c.Mux(in[0], k, in[1]))
	}
	p, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if swaps, _ := p.Fused(); swaps != pairs || p.Instructions() != pairs || p.Runs() != 2 {
		t.Fatalf("%d pairs: %d swaps in %d instructions and %d runs, want %d, %d and 2", pairs, swaps, p.Instructions(), p.Runs(), pairs, pairs)
	}
	rng := rand.New(rand.NewSource(3))
	for _, B := range []int{1, 9} {
		checkAgainstInterp(t, c, adversarialInputs(rng, 3, B))
	}
}
