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

// ResultAttr is the 0/1 answer column of a Boolean plan's output.
const ResultAttr = "result"

// CompileBooleanCtx compiles a Boolean CQ (no free variables) into a
// decision circuit: the full-join PANDA-C circuit followed by a global
// count and a threshold (count ≥ 1). This is the "decision version of
// relational algebra is in NC" statement the paper opens with, realized
// at the polymatroid-bound size instead of N^m.
//
// The plan is an ordinary Compiled, from CompileQueryCtx's pipeline
// after PANDA-C (see there for what ctx governs): Query is the Boolean
// query and RelOutput the decision gate, whose output holds the tuple
// (1) over {ResultAttr} when Q(D) is true and nothing otherwise. The
// Boolean query and its full join name their inputs alike, so it packs
// and decodes like any plan.
func CompileBooleanCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*Compiled, error) {
	if !q.IsBoolean() {
		return nil, fmt.Errorf("core: %s is not a Boolean query", q)
	}
	return compilePlan(ctx, q, dcs, CompileOptions{}, func(ctx context.Context) (*panda.CompileResult, error) {
		full := &query.Query{VarNames: q.VarNames, Free: q.AllVars(), Atoms: q.Atoms}
		res, err := panda.CompileFCQCtx(ctx, full, dcs)
		if err != nil {
			return nil, err
		}
		c := res.Circuit
		// Count the witnesses and threshold: an empty join leaves the
		// count empty, which decodes as "false"; else it holds (1).
		cnt := c.Agg(res.Output, nil, relation.AggCount, "", "n", relcircuit.Card(1))
		res.Output = c.Map(cnt, []relcircuit.MapExpr{
			{As: ResultAttr, E: expr.Ge(expr.Attr("n"), expr.Const(1))},
		}, relcircuit.Card(1))
		c.Outputs = nil // the decision bit supersedes the join output
		c.MarkOutput(res.Output)
		return res, nil
	})
}

// Decided reads a Boolean plan's answer off its output relation.
func Decided(out *relation.Relation) bool {
	pos, ok := out.AttrPos(ResultAttr), false
	out.Each(func(t relation.Tuple) { ok = ok || t[pos] != 0 })
	return ok
}
