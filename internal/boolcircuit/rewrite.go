package boolcircuit

import "fmt"

// The rewrite table of the rewriting builder (NewRewriting). It has two
// drivers: the lowering of a served compile builds through it directly
// (core.CompileQueryOptsCtx), and opt.BoolCtx replays a finished
// circuit's output cone through it. Every rule looks only at the gate's
// own operands — their ids, whether they are constants, their defining
// gate — so the rewritten wire is final the moment it is returned.

// constOf reports the value of wire w when it carries a constant.
func (c *Circuit) constOf(w int) (int64, bool) {
	if g := &c.gates[w]; g.Op == OpConst {
		return g.K, true
	}
	return 0, false
}

// emit pushes one rewritten gate, applying constant folding and
// algebraic identities first. Operands are wire ids in c, -1 where the
// operation has none. The returned wire carries exactly the value
// op(a, b, cond) computes under the evaluator's semantics for every
// input vector.
func (c *Circuit) emit(op Op, a, b, cond int) int {
	ka, aConst := int64(0), false
	kb, bConst := int64(0), false
	if a >= 0 {
		ka, aConst = c.constOf(a)
	}
	if b >= 0 {
		kb, bConst = c.constOf(b)
	}

	// Normalize commutative operands: constant to the right, then order
	// by wire id — canonical forms maximize structural-hash sharing.
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq:
		if aConst && !bConst {
			a, b = b, a
			ka, kb = kb, ka
			aConst, bConst = bConst, aConst
		} else if !aConst && !bConst && a > b {
			a, b = b, a
		}
	}

	if aConst && bConst && op != OpMux {
		return c.Const(foldBin(op, ka, kb))
	}

	switch op {
	case OpAdd:
		if bConst {
			if kb == 0 {
				return a
			}
			// Constant-chain collapse: (x + k1) + k2 → x + (k1+k2).
			if in := c.gates[a]; in.Op == OpAdd {
				if k1, ok := c.constOf(int(in.B)); ok {
					return c.emit(OpAdd, int(in.A), c.Const(k1+kb), -1)
				}
			}
		}
	case OpSub:
		if a == b {
			return c.Const(0)
		}
		if bConst && kb == 0 {
			return a
		}
	case OpMul:
		if bConst {
			if kb == 0 {
				return c.Const(0)
			}
			if kb == 1 {
				return a
			}
		}
	case OpMod:
		if bConst && kb == 0 {
			return c.Const(0) // x mod 0 = 0 by the evaluator's definition
		}
		if aConst && ka == 0 {
			return c.Const(0)
		}
	case OpAnd:
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
			if in := c.gates[a]; in.Op == OpAnd {
				if k1, ok := c.constOf(int(in.B)); ok {
					return c.emit(OpAnd, int(in.A), c.Const(k1&kb), -1)
				}
			}
		}
	case OpOr:
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
			if in := c.gates[a]; in.Op == OpOr {
				if k1, ok := c.constOf(int(in.B)); ok {
					return c.emit(OpOr, int(in.A), c.Const(k1|kb), -1)
				}
			}
		}
	case OpXor:
		if a == b {
			return c.Const(0)
		}
		if bConst {
			if kb == 0 {
				return a
			}
			if kb == -1 {
				return c.emit(OpNot, a, -1, -1)
			}
			if in := c.gates[a]; in.Op == OpXor {
				if k1, ok := c.constOf(int(in.B)); ok {
					return c.emit(OpXor, int(in.A), c.Const(k1^kb), -1)
				}
			}
		}
	case OpNot:
		if aConst {
			return c.Const(^ka)
		}
		if in := c.gates[a]; in.Op == OpNot {
			return int(in.A) // ¬¬x = x
		}
	case OpEq:
		if a == b {
			return c.Const(1)
		}
	case OpLt:
		if a == b {
			return c.Const(0)
		}
	case OpMux:
		if k, ok := c.constOf(cond); ok {
			if k != 0 {
				return a
			}
			return b
		}
		if a == b {
			return a
		}
	}
	return c.push(Gate{Op: op, A: int32(a), B: int32(b), C: int32(cond)})
}

// foldBin computes a binary operation on two constants with exactly the
// evaluator's semantics (EvaluateCtx; mod and b2i are the evaluator's
// own).
func foldBin(op Op, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpMod:
		return mod(a, b)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpEq:
		return b2i(a == b)
	case OpLt:
		return b2i(a < b)
	}
	panic(fmt.Sprintf("boolcircuit: cannot fold op %v", op))
}
