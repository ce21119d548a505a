package core

import (
	"context"
	"fmt"

	"circuitql/internal/expr"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
	"circuitql/internal/vm"
)

// ResultAttr is the 0/1 answer column of a Boolean plan's output.
const ResultAttr = "result"

// CompileBooleanCtx compiles a Boolean CQ (no free variables) into a
// decision circuit: the full-join PANDA-C circuit followed by a global
// count and a threshold (count ≥ 1). This is the "decision version of
// relational algebra is in NC" statement the paper opens with, realized
// at the polymatroid-bound size instead of N^m.
//
// The plan is an ordinary Compiled: Query is the Boolean query, and
// RelOutput the decision gate, whose output relation holds the single
// tuple (1) over {ResultAttr} when Q(D) is true and nothing when it is
// false. It packs, evaluates and decodes like any other plan, because
// the Boolean query and its full join name their inputs alike, and comes
// with its vm program (Prog) as a CompileQueryCtx plan does. See
// CompileQueryCtx for what ctx governs.
func CompileBooleanCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*Compiled, error) {
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
	prog, err := vm.Compile(ctx, obl.C)
	if err != nil {
		return nil, err
	}
	return &Compiled{Query: q, DC: dcs, Rel: c, RelOutput: out, Obliv: obl, Prog: prog, Bound: res.Bound}, nil
}

// Decided reads a Boolean plan's answer off its output relation.
func Decided(out *relation.Relation) bool {
	pos, ok := out.AttrPos(ResultAttr), false
	out.Each(func(t relation.Tuple) { ok = ok || t[pos] != 0 })
	return ok
}
