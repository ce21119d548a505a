// The facade's one circuit evaluator: every CompiledQuery runs the vm
// program its plan was compiled with — many databases in lock-step
// (EvalBatch), or one, as every Evaluate, EvaluateResilient, Decide and
// Artifact.Evaluate does.
//
// The paper's circuits are data independent, so the per-gate decode
// work (operand lookup, opcode dispatch) is identical for every
// database of conforming shape. The program pays it once per gate per
// batch instead of once per gate per database: the circuit is flattened
// into a structure-of-arrays instruction buffer and every instruction
// streams over all requests' values for that wire before moving on.
package circuitql

import (
	"context"
	"fmt"

	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/vm"
)

// EvalBatch evaluates Q(D) for every database in lock-step and returns
// one output relation per database, positionally. Every database is
// validated upfront against the query and the compiled constraint set,
// as in Evaluate: a nonconforming one fails the batch with
// ErrInvalidInput naming its position. Cancellation, deadlines, and any
// Budget on ctx apply to the whole batch.
func (c *CompiledQuery) EvalBatch(ctx context.Context, dbs []Database) (_ []*Relation, err error) {
	defer guard.Recover(&err)
	for i, db := range dbs {
		if err := query.ValidateDB(c.inner.Query, c.inner.DC, db); err != nil {
			return nil, fmt.Errorf("circuitql: batch database %d: %w", i, err)
		}
	}
	return c.run(ctx, dbs)
}

// run packs validated databases, evaluates them in one batch on the
// plan's program and decodes each lane's answer.
func (c *CompiledQuery) run(ctx context.Context, dbs []Database) ([]*Relation, error) {
	inputs := make([][]vm.Word, len(dbs))
	for i, db := range dbs {
		in, err := c.inner.PackOblivious(db)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	raws, err := c.inner.Prog.EvalBatch(ctx, inputs)
	if err != nil {
		return nil, err
	}
	outs := make([]*relation.Relation, len(raws))
	for i, raw := range raws {
		out, err := c.inner.DecodeOblivious(raw)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// evaluate runs db, already validated, as a batch of one.
func (c *CompiledQuery) evaluate(ctx context.Context, db Database) (*Relation, error) {
	outs, err := c.run(ctx, []Database{db})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}
