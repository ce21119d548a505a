// Package semiring implements join-aggregate queries over commutative
// semirings (the AJAR/FAQ queries of Section 7): relations carry one
// annotation per tuple, joins combine annotations with ⊗, and
// projections aggregate them with ⊕. Theorem 5 extends to these queries
// by replacing Yannakakis-C's projections with ⊕-aggregations and adding
// a ⊗-map after each join; this package provides the semiring
// vocabulary, an annotated reference evaluator, and the circuit
// construction on top of package yannakakis's plan machinery.
package semiring

import (
	"context"
	"fmt"
	"math"

	"circuitql/internal/expr"
	"circuitql/internal/ghd"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
)

// Semiring is a commutative semiring over int64 whose ⊕ is expressible
// as a group-by aggregate kind and whose ⊗ as a binary expression —
// exactly the shape the circuits of Section 7 need.
type Semiring struct {
	Name    string
	AddKind relation.AggKind               // ⊕: sum, min, or max
	MulExpr func(a, b expr.Expr) expr.Expr // ⊗ as an expression
	Mul     func(a, b int64) int64         // ⊗ for the reference evaluator
	One     int64                          // ⊗ identity (initial annotation)
}

// SumProduct is the counting semiring (ℕ, +, ×): annotations count
// derivations; with all-1 annotations the query result annotation is the
// number of join witnesses per output tuple.
func SumProduct() Semiring {
	return Semiring{
		Name:    "sum-product",
		AddKind: relation.AggSum,
		MulExpr: func(a, b expr.Expr) expr.Expr { return expr.Mul(a, b) },
		Mul:     func(a, b int64) int64 { return a * b },
		One:     1,
	}
}

// MinPlus is the tropical semiring (ℤ∪{∞}, min, +): shortest-path style
// aggregation.
func MinPlus() Semiring {
	return Semiring{
		Name:    "min-plus",
		AddKind: relation.AggMin,
		MulExpr: func(a, b expr.Expr) expr.Expr { return expr.Add(a, b) },
		Mul:     func(a, b int64) int64 { return a + b },
		One:     0,
	}
}

// MaxPlus is (ℤ∪{-∞}, max, +): longest/most-profitable derivations.
func MaxPlus() Semiring {
	return Semiring{
		Name:    "max-plus",
		AddKind: relation.AggMax,
		MulExpr: func(a, b expr.Expr) expr.Expr { return expr.Add(a, b) },
		Mul:     func(a, b int64) int64 { return a + b },
		One:     0,
	}
}

// BoolOrAnd is the Boolean semiring ({0,1}, ∨, ∧) encoded as (max, min).
func BoolOrAnd() Semiring {
	return Semiring{
		Name:    "boolean",
		AddKind: relation.AggMax,
		MulExpr: func(a, b expr.Expr) expr.Expr {
			return expr.Bin(expr.OpMul, a, b) // 0/1 values: ∧ is ×
		},
		Mul: func(a, b int64) int64 { return a * b },
		One: 1,
	}
}

// AnnAttr is the annotation column name in annotated relations.
const AnnAttr = "ann"

// Annotate returns a copy of rel extended with the annotation column set
// to ann(t) (use a constant function for unit annotations).
func Annotate(rel *relation.Relation, ann func(relation.Tuple) int64) *relation.Relation {
	out := relation.New(append(rel.Schema(), AnnAttr)...)
	rel.Each(func(t relation.Tuple) {
		row := append(t.Clone(), ann(t))
		out.Insert(row...)
	})
	return out
}

// EvaluateRAM computes the join-aggregate query: the free-variable
// projection of the join, each output tuple annotated with
// ⊕ over join witnesses of ⊗ over the witnesses' input annotations.
// db maps relation names to *annotated* relations (schema + AnnAttr).
// The result has schema free + AnnAttr.
func EvaluateRAM(sr Semiring, q *query.Query, db map[string]*relation.Relation) (*relation.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Join all atoms, combining annotations with ⊗.
	var acc *relation.Relation
	for i, a := range q.Atoms {
		src, ok := db[a.Name]
		if !ok {
			return nil, fmt.Errorf("semiring: missing relation %q", a.Name)
		}
		if !src.HasAttr(AnnAttr) {
			return nil, fmt.Errorf("semiring: relation %q is not annotated", a.Name)
		}
		// Rename positional columns to variable names, keep annotation.
		renamed := relation.New(append(varNames(q, a), annName(i))...)
		src.Each(func(t relation.Tuple) {
			row := make([]int64, 0, len(a.Vars)+1)
			for j := range a.Vars {
				row = append(row, t[j])
			}
			row = append(row, t[src.AttrPos(AnnAttr)])
			renamed.Insert(row...)
		})
		if acc == nil {
			acc = renamed
		} else {
			acc = acc.NaturalJoin(renamed)
		}
	}
	// Combine per-atom annotations with ⊗ and aggregate over bound vars
	// with ⊕.
	freeAttrs := q.Free.Names(q.VarNames)
	grouped := map[string]int64{}
	out := relation.New(append(append([]string(nil), freeAttrs...), AnnAttr)...)
	var order []string
	rows := map[string][]int64{}
	acc.Each(func(t relation.Tuple) {
		ann := sr.One
		for i := range q.Atoms {
			ann = sr.Mul(ann, acc.Value(t, annName(i)))
		}
		key := ""
		row := make([]int64, 0, len(freeAttrs)+1)
		for _, a := range freeAttrs {
			v := acc.Value(t, a)
			key += fmt.Sprint(v, "|")
			row = append(row, v)
		}
		if prev, ok := grouped[key]; ok {
			grouped[key] = addSR(sr, prev, ann)
		} else {
			grouped[key] = ann
			order = append(order, key)
			rows[key] = row
		}
	})
	for _, key := range order {
		out.Insert(append(rows[key], grouped[key])...)
	}
	return out, nil
}

func addSR(sr Semiring, a, b int64) int64 {
	switch sr.AddKind {
	case relation.AggSum:
		return a + b
	case relation.AggMin:
		if a < b {
			return a
		}
		return b
	case relation.AggMax:
		if a > b {
			return a
		}
		return b
	}
	panic("semiring: unsupported ⊕")
}

func varNames(q *query.Query, a query.Atom) []string {
	out := make([]string, len(a.Vars))
	for i, v := range a.Vars {
		out[i] = q.VarNames[v]
	}
	return out
}

func annName(i int) string { return fmt.Sprintf("ann·%d", i) }

// Circuit computes a join-aggregate query as a relational circuit: the
// Yannakakis-C structure with ⊕-aggregations in place of projections and
// ⊗-maps after joins (Section 7). It currently supports queries whose
// GHD, after the reduce phase, is a single bag covering the free
// variables — which includes every full acyclic query with one bag per
// edge folded into a path, and, importantly, exercises the same
// aggregation circuits the general construction uses.
type Circuit struct {
	SR      Semiring
	Query   *query.Query
	Circuit *relcircuit.Circuit
	Output  int
}

// Compile builds the annotated circuit for q under dcs with output bound
// out. The db evaluated against must provide annotated atom relations
// (PrepareDB builds them).
func Compile(ctx context.Context, sr Semiring, q *query.Query, dcs query.DCSet, out float64) (*Circuit, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := dcs.Validate(q); err != nil {
		return nil, err
	}
	_, decomp, err := ghd.DAFhtwCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	c := relcircuit.New()

	// Annotated inputs: one per atom, schema vars + per-atom annotation.
	gates := make([]int, len(q.Atoms))
	for i, a := range q.Atoms {
		f := a.VarSet()
		fa := f.Names(q.VarNames)
		card := math.Inf(1)
		for _, dc := range dcs {
			if dc.Y == f && dc.X.Empty() && dc.N < card {
				card = dc.N
			}
		}
		b := relcircuit.Card(card).WithDeg(fa, 1)
		for _, dc := range dcs {
			if dc.Y == f && !dc.X.Empty() {
				b = b.WithDeg(dc.X.Names(q.VarNames), dc.N)
			}
		}
		gates[i] = c.Input(InputName(q, i), append(append([]string(nil), fa...), annName(i)), b)
	}

	// Fold the atoms along the decomposition in post-order: join bag
	// relations bottom-up, multiplying annotations, aggregating out
	// bound variables with ⊕ when they leave scope.
	// For the supported shape we join atoms in a fixed order determined
	// by the decomposition's post-order bag sequence, then aggregate to
	// the free variables at the end.
	ordered := atomOrder(q, decomp)
	cur := gates[ordered[0]]
	curAnn := annName(ordered[0])
	curCard := c.Gates[cur].Out.Card
	for _, ai := range ordered[1:] {
		g := gates[ai]
		// The intermediate join grows by at most the joined atom's
		// degree on the overlap variables (its cardinality when no
		// tighter degree constraint is declared).
		f := q.Atoms[ai].VarSet()
		overlap := query.VarSet(0)
		for _, at := range c.Gates[cur].Schema {
			if v := q.VarIndex(at); v >= 0 && f.Has(v) {
				overlap = overlap.Add(v)
			}
		}
		deg := c.Gates[g].Out.Card
		for _, dc := range dcs {
			if dc.Y == f && dc.X.SubsetOf(overlap) && dc.N < deg {
				deg = dc.N
			}
		}
		jCard := curCard * deg
		j := c.Join(cur, g, relcircuit.Card(jCard))
		// ⊗-combine the annotations.
		attrs := c.Gates[j].Schema
		exprs := make([]relcircuit.MapExpr, 0, len(attrs))
		for _, at := range attrs {
			switch at {
			case curAnn:
				exprs = append(exprs, relcircuit.MapExpr{As: "ann·acc",
					E: sr.MulExpr(expr.Attr(curAnn), expr.Attr(annName(ai)))})
			case annName(ai):
				// dropped
			default:
				exprs = append(exprs, relcircuit.MapExpr{As: at, E: expr.Attr(at)})
			}
		}
		cur = c.Map(j, exprs, relcircuit.Card(jCard))
		curAnn = "ann·acc"
		curCard = jCard
	}
	// Final ⊕-aggregation onto the free variables.
	freeAttrs := q.Free.Names(q.VarNames)
	agg := c.Agg(cur, freeAttrs, sr.AddKind, curAnn, AnnAttr,
		relcircuit.Card(math.Min(curCard, out)).WithDeg(freeAttrs, 1))
	final := c.Cap(agg, relcircuit.Card(out))
	c.MarkOutput(final)
	return &Circuit{SR: sr, Query: q, Circuit: c, Output: final}, nil
}

// atomOrder orders atoms by the decomposition's post-order so that joins
// follow the tree structure.
func atomOrder(q *query.Query, d *ghd.Decomp) []int {
	var order []int
	used := make([]bool, len(q.Atoms))
	po := d.PostOrder()
	// Root-first then children keeps the accumulator connected.
	for i := len(po) - 1; i >= 0; i-- {
		bag := d.Bags[po[i]]
		for ai, a := range q.Atoms {
			if !used[ai] && a.VarSet().SubsetOf(bag) {
				used[ai] = true
				order = append(order, ai)
			}
		}
	}
	for ai := range q.Atoms {
		if !used[ai] {
			order = append(order, ai)
		}
	}
	return order
}

// InputName is the database key for annotated atom i.
func InputName(q *query.Query, i int) string { return "ann:" + panda.InputName(q, i) }

// PrepareDB renames annotated relations to variable names + per-atom
// annotation columns, keyed by InputName.
func PrepareDB(q *query.Query, db map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		src, ok := db[a.Name]
		if !ok {
			return nil, fmt.Errorf("semiring: missing relation %q", a.Name)
		}
		if !src.HasAttr(AnnAttr) {
			return nil, fmt.Errorf("semiring: relation %q is not annotated", a.Name)
		}
		renamed := relation.New(append(varNames(q, a), annName(i))...)
		src.Each(func(t relation.Tuple) {
			row := make([]int64, 0, len(a.Vars)+1)
			for j := range a.Vars {
				row = append(row, t[j])
			}
			row = append(row, t[src.AttrPos(AnnAttr)])
			renamed.Insert(row...)
		})
		out[InputName(q, i)] = renamed
	}
	return out, nil
}

// Evaluate runs the annotated circuit.
func (ac *Circuit) Evaluate(ctx context.Context, db map[string]*relation.Relation, check bool) (*relation.Relation, error) {
	pdb, err := PrepareDB(ac.Query, db)
	if err != nil {
		return nil, err
	}
	outs, err := ac.Circuit.EvaluateCtx(ctx, pdb, check)
	if err != nil {
		return nil, err
	}
	return outs[ac.Output], nil
}
