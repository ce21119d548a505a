package core

import (
	"context"
	"fmt"

	"circuitql/internal/expr"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
)

// BooleanCircuit decides a Boolean conjunctive query: its single-tuple
// output relation carries 1 iff Q(D) is true. This is the "decision
// version of relational algebra is in NC" statement the paper opens
// with, realized at the polymatroid-bound size instead of N^m.
type BooleanCircuit struct {
	Query     *query.Query
	Rel       *relcircuit.Circuit
	RelOutput int
	Obliv     *ObliviousCircuit
}

// ResultAttr is the 0/1 answer column of a Boolean circuit's output.
const ResultAttr = "result"

// CompileBooleanCtx compiles a Boolean CQ (no free variables) into a
// decision circuit: the full-join PANDA-C circuit followed by a global
// count and a threshold (count ≥ 1). The output relation always
// contains exactly one tuple over {result}. See CompileQueryCtx for what
// ctx governs.
func CompileBooleanCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*BooleanCircuit, error) {
	if !q.IsBoolean() {
		return nil, fmt.Errorf("core: %s is not a Boolean query", q)
	}
	full := &query.Query{VarNames: q.VarNames, Free: q.AllVars(), Atoms: q.Atoms}
	res, err := panda.CompileCtx(ctx, full, dcs, full.AllVars())
	if err != nil {
		return nil, err
	}
	c := res.Circuit
	// Count the witnesses and threshold. When the full join is empty the
	// count relation is empty too, which decodes as "false"; otherwise it
	// holds the single tuple (1).
	cnt := c.Agg(res.Output, nil, relation.AggCount, "", "n", relcircuit.Card(1))
	out := c.Map(cnt, []relcircuit.MapExpr{
		{As: ResultAttr, E: expr.Ge(expr.Attr("n"), expr.Const(1))},
	}, relcircuit.Card(1))
	c.Outputs = nil // the decision bit supersedes the join output
	c.MarkOutput(out)

	obl, err := CompileObliviousCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	return &BooleanCircuit{Query: q, Rel: c, RelOutput: out, Obliv: obl}, nil
}

// DecideCtx evaluates the oblivious decision circuit.
func (bc *BooleanCircuit) DecideCtx(ctx context.Context, db query.Database) (bool, error) {
	pdb, err := panda.PrepareDB(bc.Query, db)
	if err != nil {
		return false, err
	}
	outs, err := bc.Obliv.EvaluateCtx(ctx, pdb)
	if err != nil {
		return false, err
	}
	r := outs[bc.RelOutput]
	ok := false
	r.Each(func(t relation.Tuple) {
		if t[r.AttrPos(ResultAttr)] != 0 {
			ok = true
		}
	})
	return ok, nil
}

// DecideRelational evaluates the relational layer (for checking).
func (bc *BooleanCircuit) DecideRelational(ctx context.Context, db query.Database, check bool) (bool, error) {
	pdb, err := panda.PrepareDB(bc.Query, db)
	if err != nil {
		return false, err
	}
	outs, err := bc.Rel.EvaluateCtx(ctx, pdb, check)
	if err != nil {
		return false, err
	}
	r := outs[bc.RelOutput]
	ok := false
	r.Each(func(t relation.Tuple) {
		if t[r.AttrPos(ResultAttr)] != 0 {
			ok = true
		}
	})
	return ok, nil
}
