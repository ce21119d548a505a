// Package baseline implements the comparison points the paper measures
// against:
//
//   - the naive Õ(N^m) circuit (the classical construction of [1] and the
//     circuit SMCQL uses [10]): an m-way product with selection;
//   - the hand-built heavy/light relational circuit for the triangle
//     query from Figure 1, with cost O(N^{3/2});
//   - worst-case-optimal Generic Join in the RAM model [28, 31] and a
//     left-deep hash-join plan, used as reference RAM algorithms.
package baseline

import (
	"context"
	"fmt"
	"math"
	"sort"

	"circuitql/internal/expr"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
)

// NaiveCircuit builds the classical circuit: join the atoms in order with
// no degree information, so every join is costed (and, obliviously,
// sized) at the full product, yielding total cost Θ(Π N_F) = Θ(N^m)
// under uniform cardinalities. The output gate computes Q(D) exactly.
func NaiveCircuit(q *query.Query, dcs query.DCSet) (*relcircuit.Circuit, int, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	if err := dcs.Validate(q); err != nil {
		return nil, 0, err
	}
	c := relcircuit.New()
	inputs := panda.BuildInputs(c, q, dcs)
	// Strip degree information: the naive circuit ignores it.
	cur := -1
	curCard := 1.0
	for i := range q.Atoms {
		in := inputs[i]
		card := c.Gates[in].Out.Card
		if math.IsInf(card, 0) {
			return nil, 0, fmt.Errorf("baseline: atom %d lacks a cardinality constraint", i)
		}
		if cur < 0 {
			cur, curCard = in, card
			continue
		}
		curCard *= card
		cur = c.Join(cur, in, relcircuit.Card(curCard))
	}
	out := c.Project(cur, q.Free.Names(q.VarNames), relcircuit.Card(curCard))
	c.MarkOutput(out)
	return c, out, nil
}

// HeavyLightTriangle builds the hand-designed relational circuit of
// Figure 1 for Q△ under uniform cardinality constraints N: values of C
// are split into heavy (degree > √N in S_BC) and light; the light side
// joins T_AC with the degree-bounded light part of S and verifies
// against R_AB; the heavy side crosses R_AB with the at-most-√N heavy C
// values and verifies against S and T. Every gate costs O(N^{3/2}).
// The returned circuit expects the database keys of panda.PrepareDB for
// the catalog triangle.
func HeavyLightTriangle(n float64) (*relcircuit.Circuit, int) {
	q := query.Triangle()
	c := relcircuit.New()
	sqrtN := math.Ceil(math.Sqrt(n))

	rAB := c.Input(panda.InputName(q, 0), []string{"A", "B"}, relcircuit.Card(n).WithDeg([]string{"A", "B"}, 1))
	sBC := c.Input(panda.InputName(q, 1), []string{"B", "C"}, relcircuit.Card(n).WithDeg([]string{"B", "C"}, 1))
	tAC := c.Input(panda.InputName(q, 2), []string{"A", "C"}, relcircuit.Card(n).WithDeg([]string{"A", "C"}, 1))

	// Degree of each C value in S.
	cnt := c.Agg(sBC, []string{"C"}, relation.AggCount, "", "count",
		relcircuit.Card(n).WithDeg([]string{"C"}, 1))
	sCnt := c.Join(sBC, cnt, relcircuit.Card(n))

	// Light side: deg_C(S_light) ≤ √N, so T ⋈ S_light ≤ N^{3/2}.
	lightSel := c.Select(sCnt, expr.Le(expr.Attr("count"), expr.Const(int64(sqrtN))), relcircuit.Card(n))
	sLight := c.Project(lightSel, []string{"B", "C"},
		relcircuit.Card(n).WithDeg([]string{"C"}, sqrtN).WithDeg([]string{"B", "C"}, 1))
	lightJoin := c.Join(tAC, sLight, relcircuit.Card(n*sqrtN))
	lightOut := c.Join(lightJoin, rAB, relcircuit.Card(n*sqrtN))

	// Heavy side: at most √N heavy C values; cross with R_AB then verify.
	heavySel := c.Select(sCnt, expr.Gt(expr.Attr("count"), expr.Const(int64(sqrtN))), relcircuit.Card(n))
	heavyC := c.Project(heavySel, []string{"C"}, relcircuit.Card(sqrtN).WithDeg([]string{"C"}, 1))
	heavyCross := c.Join(rAB, heavyC, relcircuit.Card(n*sqrtN))
	heavyS := c.Join(heavyCross, sBC, relcircuit.Card(n*sqrtN))
	heavyOut := c.Join(heavyS, tAC, relcircuit.Card(n*sqrtN))

	out := c.Union(lightOut, heavyOut, relcircuit.Card(2*n*sqrtN))
	out = c.Cap(out, relcircuit.Card(math.Pow(n, 1.5)))
	c.MarkOutput(out)
	return c, out
}

// GenericJoin computes the full query with the worst-case-optimal
// attribute-at-a-time algorithm [28, 31]: variables are processed in
// index order; at each step the candidate values for the next variable
// are drawn from the atom with the fewest matching tuples and verified
// against every other atom containing the variable.
func GenericJoin(q *query.Query, db query.Database) (*relation.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := query.AtomRelation(q, db, a)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	n := q.NVars()
	out := relation.New(q.VarNames...)
	assignment := make([]int64, n)

	var rec func(v int)
	rec = func(v int) {
		if v == n {
			out.Insert(assignment...)
			return
		}
		name := q.VarNames[v]
		// Restrict every atom containing v by the current assignment and
		// pick the smallest candidate set.
		var candidates []int64
		first := true
		for _, r := range restricted(q, rels, assignment, v) {
			vals := r.Project(name)
			if first || vals.Len() < len(candidates) {
				candidates = candidates[:0]
				vals.Each(func(t relation.Tuple) { candidates = append(candidates, t[0]) })
				first = false
			}
		}
		if first {
			// No atom contains v (cannot happen for validated queries).
			return
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
		for _, cand := range candidates {
			assignment[v] = cand
			if consistent(q, rels, assignment, v) {
				rec(v + 1)
			}
		}
	}
	rec(0)
	return out.Project(q.Free.Names(q.VarNames)...), nil
}

// restricted returns, for each atom containing variable v, its tuples
// matching the assignment of variables < v.
func restricted(q *query.Query, rels []*relation.Relation, assignment []int64, v int) []*relation.Relation {
	var out []*relation.Relation
	for i, a := range q.Atoms {
		if !a.VarSet().Has(v) {
			continue
		}
		r := rels[i]
		for _, u := range a.Vars {
			if u < v {
				r = r.SelectEq(q.VarNames[u], assignment[u])
			}
		}
		out = append(out, r)
	}
	return out
}

// consistent checks the assignment of variables ≤ v against every atom
// whose bound-so-far variables include v.
func consistent(q *query.Query, rels []*relation.Relation, assignment []int64, v int) bool {
	for i, a := range q.Atoms {
		if !a.VarSet().Has(v) {
			continue
		}
		r := rels[i]
		for _, u := range a.Vars {
			if u <= v {
				r = r.SelectEq(q.VarNames[u], assignment[u])
			}
		}
		if r.Len() == 0 {
			return false
		}
	}
	return true
}

// HashJoinPlan evaluates the query by a left-deep hash-join plan in
// ascending-cardinality atom order — the conventional RAM baseline.
func HashJoinPlan(ctx context.Context, q *query.Query, db query.Database) (*relation.Relation, error) {
	return query.EvaluateCtx(ctx, q, db)
}
