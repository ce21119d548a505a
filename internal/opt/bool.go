package opt

import (
	"context"
	"fmt"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/guard"
)

// BoolCtx optimizes a word-level oblivious circuit in one pass: the
// output cone is rebuilt in topological order through the builder's
// hash-consing (global value numbering), with constant folding and
// algebraic identities applied to each gate before it is pushed, and the
// gates that folding left dead are then swept out by a liveness scan and
// an id-remapping compaction (boolcircuit.Prune). The result has:
//
//   - the same number of input wires, allocated in the same order (so
//     packing layouts remain valid even when some inputs become dead);
//   - the same number of outputs, marked in the same order, carrying the
//     same values on every input vector;
//   - recomputed depths, so level buckets are recompacted for the
//     parallel evaluator.
//
// One pass is the fixpoint: every gate of the rebuilt circuit was pushed
// by emit after no rewrite applied to it, on operands that never change
// afterwards, and the compaction renumbers survivors injectively and in
// order — so rebuilding the result again would re-emit it gate for gate
// (DESIGN.md, "Circuit optimizer"; TestBoolMatchesMultiPassReference
// holds the old rebuild-until-no-shrink loop against it).
//
// The result is adopted only if it is an improvement — never larger,
// never deeper, and smaller or shallower: rewrites like constant-chain
// collapse mint fresh Const gates, and when the original chain stays
// live (marked as an output, say) the rebuild can come out a gate larger
// than its input. Otherwise BoolCtx returns c itself, which makes it
// monotone in both size and depth.
//
// The rebuild polls ctx and any guard.Budget gate cap it carries every
// 4096 gates and fails with the typed guard errors.
func BoolCtx(ctx context.Context, c *boolcircuit.Circuit) (*boolcircuit.Circuit, error) {
	folded, err := rebuild(ctx, c)
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

// rebuild folds c forward into a fresh builder: every input (their
// allocation order is the packing contract) and every gate of the output
// cone, in order, through emit.
func rebuild(ctx context.Context, c *boolcircuit.Circuit) (*boolcircuit.Circuit, error) {
	n := c.Size()
	budget := guard.FromContext(ctx)
	live, count, err := c.OutputCone(ctx)
	if err != nil {
		return nil, err
	}
	nc := boolcircuit.New()
	nc.Grow(count + c.NumInputs())
	m := make([]int, n)
	for i := 0; i < n; i++ {
		if i&0xfff == 0 {
			if err := budget.CheckGates(ctx, nc.Size()); err != nil {
				return nil, err
			}
		}
		g := c.GateAt(i)
		switch {
		case g.Op == boolcircuit.OpInput:
			m[i] = nc.Input()
		case !live[i]:
			m[i] = -1
		case g.Op == boolcircuit.OpConst:
			m[i] = nc.Const(g.K)
		default:
			a, b, cond := -1, -1, -1
			if g.A >= 0 {
				a = m[g.A]
			}
			if g.B >= 0 {
				b = m[g.B]
			}
			if g.C >= 0 {
				cond = m[g.C]
			}
			m[i] = emit(nc, g.Op, a, b, cond)
		}
	}
	for _, o := range c.Outputs() {
		nc.MarkOutput(m[o])
	}
	return nc, nil
}

// constOf reports the value of wire w when it carries a constant.
func constOf(c *boolcircuit.Circuit, w int) (int64, bool) {
	if g := c.GateAt(w); g.Op == boolcircuit.OpConst {
		return g.K, true
	}
	return 0, false
}

// emit pushes one rewritten gate, applying constant folding and
// algebraic identities first. Operands are wire ids in c. The returned
// wire carries exactly the value op(a, b, cond) computes under the
// evaluator's semantics for every input vector.
func emit(c *boolcircuit.Circuit, op boolcircuit.Op, a, b, cond int) int {
	ka, aConst := int64(0), false
	kb, bConst := int64(0), false
	if a >= 0 {
		ka, aConst = constOf(c, a)
	}
	if b >= 0 {
		kb, bConst = constOf(c, b)
	}

	// Normalize commutative operands: constant to the right, then order
	// by wire id — canonical forms maximize structural-hash sharing.
	switch op {
	case boolcircuit.OpAdd, boolcircuit.OpMul, boolcircuit.OpAnd,
		boolcircuit.OpOr, boolcircuit.OpXor, boolcircuit.OpEq:
		if aConst && !bConst {
			a, b = b, a
			ka, kb = kb, ka
			aConst, bConst = bConst, aConst
		} else if !aConst && !bConst && a > b {
			a, b = b, a
		}
	}

	if aConst && bConst && op != boolcircuit.OpMux {
		return c.Const(foldBin(op, ka, kb))
	}

	switch op {
	case boolcircuit.OpAdd:
		if bConst {
			if kb == 0 {
				return a
			}
			// Constant-chain collapse: (x + k1) + k2 → x + (k1+k2).
			if in := c.GateAt(a); in.Op == boolcircuit.OpAdd && in.B >= 0 {
				if k1, ok := constOf(c, int(in.B)); ok {
					return emit(c, boolcircuit.OpAdd, int(in.A), c.Const(k1+kb), -1)
				}
			}
		}
	case boolcircuit.OpSub:
		if a == b {
			return c.Const(0)
		}
		if bConst && kb == 0 {
			return a
		}
	case boolcircuit.OpMul:
		if bConst {
			if kb == 0 {
				return c.Const(0)
			}
			if kb == 1 {
				return a
			}
		}
	case boolcircuit.OpMod:
		if bConst && kb == 0 {
			return c.Const(0) // x mod 0 = 0 by the evaluator's definition
		}
		if aConst && ka == 0 {
			return c.Const(0)
		}
	case boolcircuit.OpAnd:
		if a == b {
			return a
		}
		if bConst {
			if kb == 0 {
				return c.Const(0)
			}
			if kb == -1 {
				return a
			}
			if in := c.GateAt(a); in.Op == boolcircuit.OpAnd && in.B >= 0 {
				if k1, ok := constOf(c, int(in.B)); ok {
					return emit(c, boolcircuit.OpAnd, int(in.A), c.Const(k1&kb), -1)
				}
			}
		}
	case boolcircuit.OpOr:
		if a == b {
			return a
		}
		if bConst {
			if kb == 0 {
				return a
			}
			if kb == -1 {
				return c.Const(-1)
			}
			if in := c.GateAt(a); in.Op == boolcircuit.OpOr && in.B >= 0 {
				if k1, ok := constOf(c, int(in.B)); ok {
					return emit(c, boolcircuit.OpOr, int(in.A), c.Const(k1|kb), -1)
				}
			}
		}
	case boolcircuit.OpXor:
		if a == b {
			return c.Const(0)
		}
		if bConst {
			if kb == 0 {
				return a
			}
			if kb == -1 {
				return emit(c, boolcircuit.OpNot, a, -1, -1)
			}
			if in := c.GateAt(a); in.Op == boolcircuit.OpXor && in.B >= 0 {
				if k1, ok := constOf(c, int(in.B)); ok {
					return emit(c, boolcircuit.OpXor, int(in.A), c.Const(k1^kb), -1)
				}
			}
		}
	case boolcircuit.OpNot:
		if aConst {
			return c.Const(^ka)
		}
		if in := c.GateAt(a); in.Op == boolcircuit.OpNot {
			return int(in.A) // ¬¬x = x
		}
	case boolcircuit.OpEq:
		if a == b {
			return c.Const(1)
		}
	case boolcircuit.OpLt:
		if a == b {
			return c.Const(0)
		}
	case boolcircuit.OpMux:
		if k, ok := constOf(c, cond); ok {
			if k != 0 {
				return a
			}
			return b
		}
		if a == b {
			return a
		}
	}

	switch op {
	case boolcircuit.OpAdd:
		return c.Add(a, b)
	case boolcircuit.OpSub:
		return c.Sub(a, b)
	case boolcircuit.OpMul:
		return c.Mul(a, b)
	case boolcircuit.OpMod:
		return c.ModC(a, b)
	case boolcircuit.OpAnd:
		return c.And(a, b)
	case boolcircuit.OpOr:
		return c.Or(a, b)
	case boolcircuit.OpXor:
		return c.Xor(a, b)
	case boolcircuit.OpNot:
		return c.Not(a)
	case boolcircuit.OpEq:
		return c.Eq(a, b)
	case boolcircuit.OpLt:
		return c.Lt(a, b)
	case boolcircuit.OpMux:
		return c.Mux(cond, a, b)
	}
	panic(fmt.Sprintf("opt: unknown op %v", op))
}

// foldBin computes a binary operation on two constants with exactly the
// evaluator's semantics (boolcircuit.EvaluateCtx).
func foldBin(op boolcircuit.Op, a, b int64) int64 {
	switch op {
	case boolcircuit.OpAdd:
		return a + b
	case boolcircuit.OpSub:
		return a - b
	case boolcircuit.OpMul:
		return a * b
	case boolcircuit.OpMod:
		if b == 0 {
			return 0
		}
		m := a % b
		if m < 0 {
			if b < 0 {
				m -= b
			} else {
				m += b
			}
		}
		return m
	case boolcircuit.OpAnd:
		return a & b
	case boolcircuit.OpOr:
		return a | b
	case boolcircuit.OpXor:
		return a ^ b
	case boolcircuit.OpNot:
		return ^a
	case boolcircuit.OpEq:
		if a == b {
			return 1
		}
		return 0
	case boolcircuit.OpLt:
		if a < b {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("opt: cannot fold op %v", op))
}
