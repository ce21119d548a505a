// Batched-serving facade: compile a query's oblivious circuit once into
// a vectorized program and evaluate many databases in lock-step.
//
// The paper's circuits are data independent, so the per-gate decode
// work (operand lookup, opcode dispatch) is identical for every
// database of conforming shape. VMProgram pays it once per gate per
// batch instead of once per gate per database: the circuit is flattened
// into a structure-of-arrays instruction buffer and every instruction
// streams over all requests' values for that wire before moving on.
package circuitql

import (
	"context"

	"circuitql/internal/core"
	"circuitql/internal/guard"
	"circuitql/internal/relation"
	"circuitql/internal/vm"
)

// VMProgram is a compiled query lowered to the vectorized batch
// evaluator: a flat instruction buffer plus the packing metadata to
// feed databases in and decode relations out. Immutable and safe for
// concurrent EvalBatch calls.
type VMProgram struct {
	prog  *vm.Program
	inner *core.Compiled
}

// CompileVM lowers the compiled query's oblivious circuit into a
// vectorized program. The gate walk polls ctx and respects any Budget
// it carries.
func (c *CompiledQuery) CompileVM(ctx context.Context) (_ *VMProgram, err error) {
	defer guard.Recover(&err)
	prog, err := vm.Compile(ctx, c.inner.Obliv.C)
	if err != nil {
		return nil, err
	}
	return &VMProgram{prog: prog, inner: c.inner}, nil
}

// Gates returns the program's wire count (the circuit's size).
func (p *VMProgram) Gates() int { return p.prog.Gates() }

// Instructions returns the instructions executed per request: gates
// minus inputs, constants and dead gates the lowering dropped, with each
// fused super-instruction (see Fused) counted once.
func (p *VMProgram) Instructions() int { return p.prog.Instructions() }

// Fused returns how many of the instructions are the sorting network's
// conditional swap (two MUX gates in one) and how many are a
// lexicographic-compare step (four gates in one).
func (p *VMProgram) Fused() (swaps, lexes int) { return p.prog.Fused() }

// Slots returns the value slots per request lane: the maximum number of
// simultaneously live wires after the lowering's liveness pass. The
// evaluator's working set is Slots × batch-size words.
func (p *VMProgram) Slots() int { return p.prog.Slots() }

// Levels returns the program's instruction-level count: the circuit's
// depth with every fused step counted as one gate.
func (p *VMProgram) Levels() int { return p.prog.Levels() }

// Runs returns how many same-opcode runs the instructions fall into:
// the evaluator dispatches once per run.
func (p *VMProgram) Runs() int { return p.prog.Runs() }

// EvalBatch evaluates Q(D) for every database in lock-step and returns
// one output relation per database, positionally. Every database must
// conform to the bounds the query was compiled against (packing fails
// otherwise). Cancellation, deadlines, and any Budget on ctx apply to
// the whole batch.
func (p *VMProgram) EvalBatch(ctx context.Context, dbs []Database) (_ []*Relation, err error) {
	defer guard.Recover(&err)
	inputs := make([][]vm.Word, len(dbs))
	for i, db := range dbs {
		in, err := p.inner.PackOblivious(db)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	raws, err := p.prog.EvalBatch(ctx, inputs)
	if err != nil {
		return nil, err
	}
	outs := make([]*relation.Relation, len(raws))
	for i, raw := range raws {
		out, err := p.inner.DecodeOblivious(raw)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}
