package boolcircuit

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// rawBin pushes a one- or two-operand gate verbatim, past the rewrite
// table: how the rows below name the gate a rewrite is expected to have
// built.
func rawBin(c *Circuit, op Op, a, b int) int {
	return c.push(Gate{Op: op, A: int32(a), B: int32(b), C: -1})
}

// rewriteRows has one row per rule of emit. build asks a builder for a
// gate over the inputs x and y; want names, in the same circuit and past
// the table, the wire the rewriting builder must have returned — an
// operand, a constant, or the one gate left after rewriting.
var rewriteRows = []struct {
	name  string
	build func(c *Circuit, x, y int) int
	want  func(c *Circuit, x, y int) int
}{
	// Commutative normalization: constant to the right, then by wire id.
	{"add orders operands by id", func(c *Circuit, x, y int) int { return c.Add(y, x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpAdd, x, y) }},
	{"mul moves the constant right", func(c *Circuit, x, y int) int { return c.Mul(c.Const(3), x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpMul, x, c.Const(3)) }},
	{"eq orders operands by id", func(c *Circuit, x, y int) int { return c.Eq(y, x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpEq, x, y) }},
	{"sub is not commutative", func(c *Circuit, x, y int) int { return c.Sub(y, x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpSub, y, x) }},
	{"lt is not commutative", func(c *Circuit, x, y int) int { return c.Lt(y, x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpLt, y, x) }},
	{"mod is not commutative", func(c *Circuit, x, y int) int { return c.ModC(y, x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpMod, y, x) }},

	// Identities.
	{"x+0", func(c *Circuit, x, y int) int { return c.Add(x, c.Const(0)) },
		func(c *Circuit, x, y int) int { return x }},
	{"0+x", func(c *Circuit, x, y int) int { return c.Add(c.Const(0), x) },
		func(c *Circuit, x, y int) int { return x }},
	{"x-x", func(c *Circuit, x, y int) int { return c.Sub(x, x) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"x-0", func(c *Circuit, x, y int) int { return c.Sub(x, c.Const(0)) },
		func(c *Circuit, x, y int) int { return x }},
	{"0-x stays", func(c *Circuit, x, y int) int { return c.Sub(c.Const(0), x) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpSub, c.Const(0), x) }},
	{"x*0", func(c *Circuit, x, y int) int { return c.Mul(x, c.Const(0)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"x*1", func(c *Circuit, x, y int) int { return c.Mul(x, c.Const(1)) },
		func(c *Circuit, x, y int) int { return x }},
	{"1*x", func(c *Circuit, x, y int) int { return c.Mul(c.Const(1), x) },
		func(c *Circuit, x, y int) int { return x }},
	{"x mod 0", func(c *Circuit, x, y int) int { return c.ModC(x, c.Const(0)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"0 mod x", func(c *Circuit, x, y int) int { return c.ModC(c.Const(0), x) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"x&x", func(c *Circuit, x, y int) int { return c.And(x, x) },
		func(c *Circuit, x, y int) int { return x }},
	{"x&0", func(c *Circuit, x, y int) int { return c.And(x, c.Const(0)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"x&-1", func(c *Circuit, x, y int) int { return c.And(c.Const(-1), x) },
		func(c *Circuit, x, y int) int { return x }},
	{"x|x", func(c *Circuit, x, y int) int { return c.Or(x, x) },
		func(c *Circuit, x, y int) int { return x }},
	{"x|0", func(c *Circuit, x, y int) int { return c.Or(x, c.Const(0)) },
		func(c *Circuit, x, y int) int { return x }},
	{"x|-1", func(c *Circuit, x, y int) int { return c.Or(x, c.Const(-1)) },
		func(c *Circuit, x, y int) int { return c.Const(-1) }},
	{"x^x", func(c *Circuit, x, y int) int { return c.Xor(x, x) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"x^0", func(c *Circuit, x, y int) int { return c.Xor(c.Const(0), x) },
		func(c *Circuit, x, y int) int { return x }},
	{"x^-1 is not", func(c *Circuit, x, y int) int { return c.Xor(x, c.Const(-1)) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpNot, x, -1) }},
	{"(x^-1)^-1 is x, through not-not", func(c *Circuit, x, y int) int { return c.Xor(c.Xor(x, c.Const(-1)), c.Const(-1)) },
		func(c *Circuit, x, y int) int { return x }},
	{"not not x", func(c *Circuit, x, y int) int { return c.Not(c.Not(x)) },
		func(c *Circuit, x, y int) int { return x }},
	{"x==x", func(c *Circuit, x, y int) int { return c.Eq(x, x) },
		func(c *Circuit, x, y int) int { return c.Const(1) }},
	{"x<x", func(c *Circuit, x, y int) int { return c.Lt(x, x) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"mux on a nonzero constant", func(c *Circuit, x, y int) int { return c.Mux(c.Const(-2), x, y) },
		func(c *Circuit, x, y int) int { return x }},
	{"mux on constant zero", func(c *Circuit, x, y int) int { return c.Mux(c.Const(0), x, y) },
		func(c *Circuit, x, y int) int { return y }},
	{"mux with equal arms", func(c *Circuit, x, y int) int { return c.Mux(y, x, x) },
		func(c *Circuit, x, y int) int { return x }},
	{"mux with constant arms stays", func(c *Circuit, x, y int) int { return c.Mux(x, c.Const(1), c.Const(0)) },
		func(c *Circuit, x, y int) int {
			return c.push(Gate{Op: OpMux, A: int32(c.Const(1)), B: int32(c.Const(0)), C: int32(x)})
		}},

	// Constant chains, one per associative operation that has one.
	{"(x+5)+(-5)", func(c *Circuit, x, y int) int { return c.Add(c.Add(x, c.Const(5)), c.Const(-5)) },
		func(c *Circuit, x, y int) int { return x }},
	{"(x+max)+1 wraps", func(c *Circuit, x, y int) int {
		return c.Add(c.Const(1), c.Add(c.Const(math.MaxInt64), x))
	}, func(c *Circuit, x, y int) int { return rawBin(c, OpAdd, x, c.Const(math.MinInt64)) }},
	{"(x&12)&10", func(c *Circuit, x, y int) int { return c.And(c.And(x, c.Const(12)), c.Const(10)) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpAnd, x, c.Const(8)) }},
	{"(x&12)&3 is 0", func(c *Circuit, x, y int) int { return c.And(c.And(x, c.Const(12)), c.Const(3)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"(x|12)|3", func(c *Circuit, x, y int) int { return c.Or(c.Or(x, c.Const(12)), c.Const(3)) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpOr, x, c.Const(15)) }},
	{"(x^12)^10", func(c *Circuit, x, y int) int { return c.Xor(c.Xor(x, c.Const(12)), c.Const(10)) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpXor, x, c.Const(6)) }},
	{"(x^12)^12", func(c *Circuit, x, y int) int { return c.Xor(c.Xor(x, c.Const(12)), c.Const(12)) },
		func(c *Circuit, x, y int) int { return x }},
	{"(x*3)*5 has no chain rule", func(c *Circuit, x, y int) int { return c.Mul(c.Mul(x, c.Const(3)), c.Const(5)) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpMul, rawBin(c, OpMul, x, c.Const(3)), c.Const(5)) }},

	// Folding, with the evaluator's exact semantics.
	{"max+1 wraps", func(c *Circuit, x, y int) int { return c.Add(c.Const(math.MaxInt64), c.Const(1)) },
		func(c *Circuit, x, y int) int { return c.Const(math.MinInt64) }},
	{"min-1 wraps", func(c *Circuit, x, y int) int { return c.Sub(c.Const(math.MinInt64), c.Const(1)) },
		func(c *Circuit, x, y int) int { return c.Const(math.MaxInt64) }},
	{"mul wraps", func(c *Circuit, x, y int) int { return c.Mul(c.Const(1<<62), c.Const(4)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"7 mod 0", func(c *Circuit, x, y int) int { return c.ModC(c.Const(7), c.Const(0)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"-7 mod 3", func(c *Circuit, x, y int) int { return c.ModC(c.Const(-7), c.Const(3)) },
		func(c *Circuit, x, y int) int { return c.Const(2) }},
	{"-7 mod -3", func(c *Circuit, x, y int) int { return c.ModC(c.Const(-7), c.Const(-3)) },
		func(c *Circuit, x, y int) int { return c.Const(2) }},
	{"7 mod -3", func(c *Circuit, x, y int) int { return c.ModC(c.Const(7), c.Const(-3)) },
		func(c *Circuit, x, y int) int { return c.Const(1) }},
	{"and or xor of constants", func(c *Circuit, x, y int) int {
		return c.Xor(c.And(c.Const(12), c.Const(10)), c.Or(c.Const(12), c.Const(10)))
	}, func(c *Circuit, x, y int) int { return c.Const(8 ^ 14) }},
	{"not of a constant", func(c *Circuit, x, y int) int { return c.Not(c.Const(5)) },
		func(c *Circuit, x, y int) int { return c.Const(^5) }},
	{"eq of constants", func(c *Circuit, x, y int) int { return c.Eq(c.Const(4), c.Const(4)) },
		func(c *Circuit, x, y int) int { return c.Const(1) }},
	{"lt is signed", func(c *Circuit, x, y int) int { return c.Lt(c.Const(-1), c.Const(0)) },
		func(c *Circuit, x, y int) int { return c.Const(1) }},
	{"lt is signed, the other way", func(c *Circuit, x, y int) int { return c.Lt(c.Const(0), c.Const(-1)) },
		func(c *Circuit, x, y int) int { return c.Const(0) }},
	{"derived gates go through the table", func(c *Circuit, x, y int) int { return c.NotB(c.NotB(c.Le(x, y))) },
		func(c *Circuit, x, y int) int { return rawBin(c, OpXor, rawBin(c, OpLt, y, x), c.Const(1)) }},
}

// TestRewriteTable checks every row twice: the rewriting builder returns
// exactly the wire the row names, building nothing the row does not; and
// that wire carries what the paper's builder computes for the same calls,
// on vectors that reach the wrap-around, sign and zero cases.
func TestRewriteTable(t *testing.T) {
	edge := []int64{0, 1, -1, 2, 3, -3, 7, -7, 12, math.MaxInt64, math.MinInt64}
	for _, row := range rewriteRows {
		t.Run(row.name, func(t *testing.T) {
			c := NewRewriting()
			x, y := c.Input(), c.Input()
			got := row.build(c, x, y)
			size := c.Size()
			if want := row.want(c, x, y); got != want || c.Size() != size {
				t.Fatalf("got wire %d (%+v) of %d gates; naming the expected wire gave %d of %d",
					got, c.gates[got], size, want, c.Size())
			}
			c.MarkOutput(got)

			raw := New()
			rx, ry := raw.Input(), raw.Input()
			raw.MarkOutput(row.build(raw, rx, ry))
			for _, vx := range edge {
				for _, vy := range edge {
					want, err := raw.EvaluateCtx(context.Background(), []int64{vx, vy})
					if err != nil {
						t.Fatal(err)
					}
					out, err := c.EvaluateCtx(context.Background(), []int64{vx, vy})
					if err != nil {
						t.Fatal(err)
					}
					if out[0] != want[0] {
						t.Fatalf("x=%d y=%d: rewritten %d, verbatim %d", vx, vy, out[0], want[0])
					}
				}
			}
		})
	}
}

// TestOnlyTheRewritingBuilderRewrites: rewriting belongs to the builder
// NewRewriting returns and to nothing derived from it. New, Prune's copy
// and Read's result append the gate they are asked for, and the bytes of
// a circuit do not say which builder made it.
func TestOnlyTheRewritingBuilderRewrites(t *testing.T) {
	built := NewRewriting()
	x := built.Input()
	built.MarkOutput(built.Add(built.Mul(x, built.Const(3)), built.Const(0)))
	if built.Size() != 4 {
		t.Fatalf("x*3+0 built %d gates through the rewriting builder, want 4: x, 3, x*3 and the unused 0", built.Size())
	}

	pruned, err := built.Prune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	serialized := append([]byte(nil), buf.Bytes()...)
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	verbatim := New()
	for _, g := range built.gates {
		if id := verbatim.push(g); g.Op == OpInput {
			verbatim.inputs = append(verbatim.inputs, id)
		}
	}
	verbatim.outputs = built.Outputs()
	buf.Reset()
	if _, err := verbatim.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialized, buf.Bytes()) {
		t.Fatal("the same gates serialize differently out of the rewriting builder")
	}

	for name, c := range map[string]*Circuit{"New": verbatim, "Prune": pruned, "Read": loaded} {
		if c.rewrite {
			t.Fatalf("%s: the circuit rewrites", name)
		}
		zero := c.Const(0)
		size := c.Size()
		if w := c.Add(0, zero); w != size || c.gates[w] != (Gate{Op: OpAdd, A: 0, B: int32(zero), C: -1}) {
			t.Fatalf("%s: x+0 came back as wire %d %+v, want a new add gate %d", name, w, c.gates[w], size)
		}
	}
}
