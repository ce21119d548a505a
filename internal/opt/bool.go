package opt

import (
	"context"
	"fmt"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/guard"
)

// BoolCtx optimizes a word-level oblivious circuit that was not built
// through the rewriting builder — a deserialized circuit, a raw lowering
// (core.CompileObliviousCtx), a fuzzer's — in one pass: the output cone is
// replayed in topological order through boolcircuit.NewRewriting, whose
// builder applies constant folding, the algebraic identities and
// hash-consing (global value numbering) to each gate before it is pushed,
// and the gates that folding left dead are then swept out by a liveness
// scan and an id-remapping compaction (boolcircuit.Prune). A served
// compile never comes here: core.CompileQueryOptsCtx lowers straight
// through the same builder and only sweeps. The result has:
//
//   - the same number of input wires, allocated in the same order (so
//     packing layouts remain valid even when some inputs become dead);
//   - the same number of outputs, marked in the same order, carrying the
//     same values on every input vector;
//   - recomputed depths, so the vm compiler sees tighter, wider levels.
//
// One pass is the fixpoint: every gate of the replayed circuit was
// pushed by the builder after no rewrite applied to it, on operands that
// never change afterwards, and the compaction renumbers survivors
// injectively and in order — so replaying the result again would re-emit
// it gate for gate (DESIGN.md, "Circuit optimizer";
// TestBoolMatchesMultiPassReference holds the old rebuild-until-no-shrink
// loop against it, TestFusedCompileIsMonotoneAndAFixpoint the builder-time
// form).
//
// The result is adopted only if it is an improvement — never larger,
// never deeper, and smaller or shallower: rewrites like constant-chain
// collapse mint fresh Const gates, and when the original chain stays
// live (marked as an output, say) the replay can come out a gate larger
// than its input. Otherwise BoolCtx returns c itself, which makes it
// monotone in both size and depth.
//
// The replay polls ctx and any guard.Budget gate cap it carries every
// 4096 gates and fails with the typed guard errors.
func BoolCtx(ctx context.Context, c *boolcircuit.Circuit) (*boolcircuit.Circuit, error) {
	folded, err := replay(ctx, c)
	if err != nil {
		return nil, err
	}
	out, err := folded.Prune(ctx)
	if err != nil {
		return nil, err
	}
	if !improves(out, c) {
		return c, nil
	}
	return out, nil
}

// Bool is BoolCtx without a context.
//
// Deprecated: use BoolCtx. Bool remains only because bench/trace.go,
// which is frozen with the benchmark definition, times this signature.
func Bool(c *boolcircuit.Circuit) *boolcircuit.Circuit {
	out, err := BoolCtx(context.Background(), c)
	if err != nil {
		// Unreachable without a context or budget to trip.
		return c
	}
	return out
}

// improves reports whether next may replace best under the monotone
// rule: no larger, no deeper, and strictly better in one of the two.
func improves(next, best *boolcircuit.Circuit) bool {
	return next.Size() <= best.Size() && next.Depth() <= best.Depth() &&
		(next.Size() < best.Size() || next.Depth() < best.Depth())
}

// replay folds c forward into a rewriting builder: every input (their
// allocation order is the packing contract) and every gate of the output
// cone, in order. The rewrites themselves are the builder's
// (boolcircuit.NewRewriting).
func replay(ctx context.Context, c *boolcircuit.Circuit) (*boolcircuit.Circuit, error) {
	n := c.Size()
	budget := guard.FromContext(ctx)
	live, count, err := c.OutputCone(ctx)
	if err != nil {
		return nil, err
	}
	nc := boolcircuit.NewRewriting()
	nc.Grow(count + c.NumInputs())
	m := make([]int, n)
	for i := 0; i < n; i++ {
		if i&0xfff == 0 {
			if err := budget.CheckGates(ctx, nc.Size()); err != nil {
				return nil, err
			}
		}
		switch g := c.GateAt(i); {
		case g.Op == boolcircuit.OpInput:
			m[i] = nc.Input()
		case live[i]:
			m[i] = build(nc, g, m)
		default:
			m[i] = -1
		}
	}
	for _, o := range c.Outputs() {
		nc.MarkOutput(m[o])
	}
	return nc, nil
}

// build asks nc for gate g of another circuit, its operands translated
// through m.
func build(nc *boolcircuit.Circuit, g boolcircuit.Gate, m []int) int {
	switch g.Op {
	case boolcircuit.OpConst:
		return nc.Const(g.K)
	case boolcircuit.OpNot:
		return nc.Not(m[g.A])
	case boolcircuit.OpMux:
		return nc.Mux(m[g.C], m[g.A], m[g.B])
	case boolcircuit.OpAdd:
		return nc.Add(m[g.A], m[g.B])
	case boolcircuit.OpSub:
		return nc.Sub(m[g.A], m[g.B])
	case boolcircuit.OpMul:
		return nc.Mul(m[g.A], m[g.B])
	case boolcircuit.OpMod:
		return nc.ModC(m[g.A], m[g.B])
	case boolcircuit.OpAnd:
		return nc.And(m[g.A], m[g.B])
	case boolcircuit.OpOr:
		return nc.Or(m[g.A], m[g.B])
	case boolcircuit.OpXor:
		return nc.Xor(m[g.A], m[g.B])
	case boolcircuit.OpEq:
		return nc.Eq(m[g.A], m[g.B])
	case boolcircuit.OpLt:
		return nc.Lt(m[g.A], m[g.B])
	}
	panic(fmt.Sprintf("opt: unknown op %v", g.Op))
}
