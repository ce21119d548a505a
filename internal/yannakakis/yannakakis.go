// Package yannakakis implements the output-sensitive machinery of
// Section 6: the 3-phase Yannakakis algorithm [34, 32] over generalized
// hypertree decompositions, both as a reference RAM algorithm and as
// relational circuits — Reduce-C (Algorithm 8), Yannakakis-C (Algorithm
// 9) with the output-bounded join circuit (Algorithm 10), and the
// OUT-computing circuit (Algorithm 11).
//
// Together with PANDA-C for the per-bag relations this realizes Theorem
// 5: a first circuit family computes OUT = |Q(D)| from DC alone in
// Õ(N + 2^da-fhtw) size, and a second family, parameterized by DC and
// OUT, computes Q(D) in Õ(N + 2^da-fhtw + OUT) size — both with Õ(1)
// depth.
package yannakakis

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"circuitql/internal/expr"
	"circuitql/internal/ghd"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
)

// node is one GHD node during circuit construction or RAM evaluation.
type node struct {
	bag      query.VarSet
	gate     int                // circuit construction
	rel      *relation.Relation // RAM evaluation
	card     float64            // declared bound of the bag wire
	parent   int
	children []int
	removed  bool
}

// tree converts a ghd.Decomp into mutable nodes.
func tree(d *ghd.Decomp) []*node {
	nodes := make([]*node, len(d.Bags))
	for i, b := range d.Bags {
		nodes[i] = &node{bag: b, parent: d.Parent[i]}
	}
	for i, n := range nodes {
		if n.parent >= 0 {
			nodes[n.parent].children = append(nodes[n.parent].children, i)
		}
	}
	return nodes
}

// postOrder returns live non-root nodes bottom-up.
func postOrder(nodes []*node) []int {
	var out []int
	var walk func(int)
	walk = func(i int) {
		for _, ch := range nodes[i].children {
			if !nodes[ch].removed {
				walk(ch)
			}
		}
		if i != 0 {
			out = append(out, i)
		}
	}
	walk(0)
	return out
}

// preOrder returns live nodes top-down.
func preOrder(nodes []*node) []int {
	var out []int
	var walk func(int)
	walk = func(i int) {
		out = append(out, i)
		for _, ch := range nodes[i].children {
			if !nodes[ch].removed {
				walk(ch)
			}
		}
	}
	walk(0)
	return out
}

// detach removes node v, reattaching its children to its parent.
func detach(nodes []*node, v int) {
	p := nodes[v].parent
	nodes[v].removed = true
	kept := nodes[p].children[:0]
	for _, ch := range nodes[p].children {
		if ch != v {
			kept = append(kept, ch)
		}
	}
	nodes[p].children = kept
	for _, ch := range nodes[v].children {
		nodes[ch].parent = p
		nodes[p].children = append(nodes[p].children, ch)
	}
	nodes[v].children = nil
}

// Plan fixes the decomposition and bag bounds for a query: both circuit
// families and the RAM reference share it.
type Plan struct {
	Query  *query.Query
	DC     query.DCSet
	Decomp *ghd.Decomp
	Width  *big.Rat // da-fhtw in bits
}

// NewPlanCtx picks the da-fhtw-optimal (free-connex where required)
// decomposition. The width search (and its exact LPs) polls ctx and
// respects any guard.Budget it carries. The search runs under an obs
// yannakakis-plan span (its LP solves accumulate there).
func NewPlanCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (_ *Plan, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageYanPlan)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	if err := q.Validate(); err != nil {
		return nil, guard.Invalidf("%v", err)
	}
	if err := dcs.Validate(q); err != nil {
		return nil, guard.Invalidf("%v", err)
	}
	w, d, err := ghd.DAFhtwCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	return &Plan{Query: q, DC: dcs, Decomp: d, Width: w}, nil
}

// attrsOf maps variable sets to attribute names.
func (p *Plan) attrsOf(s query.VarSet) []string { return s.Names(p.Query.VarNames) }

// --- RAM reference -------------------------------------------------------

// bagRelationRAM computes the bag relation: tuples over the bag
// consistent with every atom (the join of each atom's projection onto
// its bag overlap), which contains Π_bag(Q_full(D)).
func (p *Plan) bagRelationRAM(db map[string]*relation.Relation, bag query.VarSet) (*relation.Relation, error) {
	var acc *relation.Relation
	for i, a := range p.Query.Atoms {
		f := a.VarSet()
		ov := f.Intersect(bag)
		if ov.Empty() {
			continue
		}
		r := db[panda.InputName(p.Query, i)]
		if r == nil {
			return nil, fmt.Errorf("yannakakis: missing relation for atom %d", i)
		}
		side := r.Project(p.attrsOf(ov)...)
		if acc == nil {
			acc = side
		} else {
			acc = acc.NaturalJoin(side)
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("yannakakis: bag %s overlaps no atom", bag.Label(p.Query.VarNames))
	}
	return acc, nil
}

// EvaluateRAMCtx runs the GHD + 3-phase Yannakakis reference algorithm
// and returns Q(D), polling ctx once per bag.
func (p *Plan) EvaluateRAMCtx(ctx context.Context, db query.Database) (*relation.Relation, error) {
	pdb, err := panda.PrepareDB(p.Query, db)
	if err != nil {
		return nil, err
	}
	nodes := tree(p.Decomp)
	for _, n := range nodes {
		if err := guard.Poll(ctx); err != nil {
			return nil, err
		}
		rel, err := p.bagRelationRAM(pdb, n.bag)
		if err != nil {
			return nil, err
		}
		n.rel = rel
	}

	// Phase 1 (reduce): remove bound variables bottom-up (Algorithm 8).
	for _, v := range postOrder(nodes) {
		n, par := nodes[v], nodes[nodes[v].parent]
		f := n.bag.Intersect(p.Query.Free)
		if f.SubsetOf(par.bag) {
			par.rel = par.rel.SemiJoin(n.rel)
			detach(nodes, v)
		} else {
			n.bag = f
			n.rel = n.rel.Project(p.attrsOf(f)...)
		}
	}
	root := nodes[0]
	rootFree := root.bag.Intersect(p.Query.Free)
	root.rel = root.rel.Project(p.attrsOf(rootFree)...)
	root.bag = rootFree

	// Phase 2: full reduction by two semijoin passes (Algorithm 9, 2-9).
	for _, v := range postOrder(nodes) {
		par := nodes[nodes[v].parent]
		par.rel = par.rel.SemiJoin(nodes[v].rel)
	}
	for _, v := range preOrder(nodes) {
		for _, ch := range nodes[v].children {
			nodes[ch].rel = nodes[ch].rel.SemiJoin(nodes[v].rel)
		}
	}

	// Phase 3: bottom-up joins (Algorithm 9, 10-16).
	for _, v := range postOrder(nodes) {
		par := nodes[nodes[v].parent]
		par.rel = par.rel.NaturalJoin(nodes[v].rel)
		par.bag = par.bag.Union(nodes[v].bag)
		detach(nodes, v)
	}
	return root.rel, nil
}

// --- circuit construction -------------------------------------------------

// buildBags compiles the PANDA-C bag subcircuits over shared inputs
// (Algorithm 8, lines 2-6).
func (p *Plan) buildBags(ctx context.Context, c *relcircuit.Circuit) ([]*node, error) {
	inputs := panda.BuildInputs(c, p.Query, p.DC)
	nodes := tree(p.Decomp)
	for _, n := range nodes {
		res, err := panda.CompileIntoCtx(ctx, c, inputs, p.Query, p.DC, n.bag)
		if err != nil {
			return nil, fmt.Errorf("yannakakis: bag %s: %w", n.bag.Label(p.Query.VarNames), err)
		}
		n.gate = res.Output
		n.card = c.Gates[res.Output].Out.Card
	}
	return nodes, nil
}

// semijoinGate emits r ⋉ s as Π_common(s) followed by a primary-key
// join (Section 6.2).
func semijoinGate(c *relcircuit.Circuit, r, s int) int {
	rs, ss := c.Gates[r].Schema, c.Gates[s].Schema
	var common []string
	for _, a := range rs {
		for _, b := range ss {
			if a == b {
				common = append(common, a)
				break
			}
		}
	}
	side := c.Project(s, common, relcircuit.Card(c.Gates[s].Out.Card).WithDeg(common, 1))
	return c.Join(r, side, relcircuit.Card(c.Gates[r].Out.Card))
}

// reduceC runs Reduce-C (Algorithm 8) on the circuit tree.
func (p *Plan) reduceC(c *relcircuit.Circuit, nodes []*node) {
	for _, v := range postOrder(nodes) {
		n, par := nodes[v], nodes[nodes[v].parent]
		f := n.bag.Intersect(p.Query.Free)
		if f.SubsetOf(par.bag) {
			par.gate = semijoinGate(c, par.gate, n.gate)
			detach(nodes, v)
		} else {
			fa := p.attrsOf(f)
			n.gate = c.Project(n.gate, fa, relcircuit.Card(n.card).WithDeg(fa, 1))
			n.bag = f
		}
	}
	root := nodes[0]
	rootFree := root.bag.Intersect(p.Query.Free)
	fa := p.attrsOf(rootFree)
	root.gate = c.Project(root.gate, fa, relcircuit.Card(root.card).WithDeg(fa, 1))
	root.bag = rootFree
}

// outputBoundedJoin emits the output-bounded join circuit (Algorithm 10)
// for r ⋈ s with the promise |r ⋈ s| ≤ outBound.
func outputBoundedJoin(c *relcircuit.Circuit, r, s int, outBound float64) int {
	rs, ss := c.Gates[r].Schema, c.Gates[s].Schema
	var f []string
	for _, a := range rs {
		for _, b := range ss {
			if a == b {
				f = append(f, a)
				break
			}
		}
	}
	if len(f) == 0 {
		j := c.Join(r, s, relcircuit.Card(outBound))
		return c.Cap(j, relcircuit.Card(outBound))
	}
	cardR := c.Gates[r].Out.Card
	cardS := c.Gates[s].Out.Card
	branches := relcircuit.Decompose(c, s, f, cardS)
	var joins []int
	for _, br := range branches {
		// R_i ← R ⋉ S_i, then truncate to OUT / 2^(i-1): each surviving
		// R tuple joins at least 2^(i-1) tuples of S's degree bucket.
		ri := c.Join(r, br.Proj, relcircuit.Card(cardR))
		ni := math.Min(cardR, math.Floor(outBound/br.Deg))
		ri = c.Cap(ri, relcircuit.Card(ni))
		ji := c.Join(ri, br.Sub, relcircuit.Card(math.Min(outBound, ni*br.Deg)))
		joins = append(joins, ji)
	}
	u := joins[0]
	for _, j := range joins[1:] {
		u = c.Union(u, j, relcircuit.Card(c.Gates[u].Out.Card+c.Gates[j].Out.Card))
	}
	return c.Cap(u, relcircuit.Card(outBound))
}

// EvalCircuit is the second circuit family of Theorem 5: parameterized by
// DC and OUT, it computes Q(D) for every D conforming to DC with
// |Q(D)| ≤ OUT.
type EvalCircuit struct {
	Plan    *Plan
	Circuit *relcircuit.Circuit
	Output  int
	OUT     float64
}

// CompileEvalCtx builds Yannakakis-C (Algorithm 9) for the given output
// bound (see NewPlanCtx for what ctx governs).
func (p *Plan) CompileEvalCtx(ctx context.Context, out float64) (*EvalCircuit, error) {
	if out < 1 {
		out = 1
	}
	c := relcircuit.New()
	nodes, err := p.buildBags(ctx, c)
	if err != nil {
		return nil, err
	}
	p.reduceC(c, nodes)

	// Phase 2: two semijoin passes.
	for _, v := range postOrder(nodes) {
		par := nodes[nodes[v].parent]
		par.gate = semijoinGate(c, par.gate, nodes[v].gate)
	}
	for _, v := range preOrder(nodes) {
		for _, ch := range nodes[v].children {
			nodes[ch].gate = semijoinGate(c, nodes[ch].gate, nodes[v].gate)
		}
	}

	// Phase 3: bottom-up output-bounded joins.
	for _, v := range postOrder(nodes) {
		n, par := nodes[v], nodes[nodes[v].parent]
		outT := math.Min(out, c.Gates[n.gate].Out.Card*c.Gates[par.gate].Out.Card)
		par.gate = outputBoundedJoin(c, par.gate, n.gate, outT)
		par.bag = par.bag.Union(n.bag)
		detach(nodes, v)
	}
	root := nodes[0].gate
	root = c.Cap(root, relcircuit.Card(out))
	c.MarkOutput(root)
	pruned, mapping := c.Prune()
	return &EvalCircuit{Plan: p, Circuit: pruned, Output: mapping[root], OUT: out}, nil
}

// EvaluateCtx runs the evaluation circuit on a database (see
// relcircuit.EvaluateCtx for what ctx governs).
func (e *EvalCircuit) EvaluateCtx(ctx context.Context, db query.Database, check bool) (*relation.Relation, error) {
	pdb, err := panda.PrepareDB(e.Plan.Query, db)
	if err != nil {
		return nil, err
	}
	outs, err := e.Circuit.EvaluateCtx(ctx, pdb, check)
	if err != nil {
		return nil, err
	}
	return outs[e.Output], nil
}

// CountCircuit is the first circuit family of Theorem 5: it computes
// OUT = |Q(D)| from DC alone (Algorithm 11).
type CountCircuit struct {
	Plan    *Plan
	Circuit *relcircuit.Circuit
	Output  int // gate holding a single tuple (count)
}

// CountAttr is the column name carrying |Q(D)| in the count circuit's
// output.
const CountAttr = "out"

// CompileCountCtx builds the OUT-computing circuit (see NewPlanCtx for
// what ctx governs). The per-bag PANDA-C compilations and the fold both
// run under an obs yannakakis-count span counting the relational gates
// built.
func (p *Plan) CompileCountCtx(ctx context.Context) (_ *CountCircuit, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageYanCount)
	c := relcircuit.New()
	defer func() {
		sp.AddInt(obs.CounterRelGates, int64(c.Size()))
		sp.SetError(err)
		sp.End()
	}()
	nodes, err := p.buildBags(ctx, c)
	if err != nil {
		return nil, err
	}
	p.reduceC(c, nodes)

	// Annotate every live bag with count 1.
	for _, v := range preOrder(nodes) {
		n := nodes[v]
		attrs := c.Gates[n.gate].Schema
		exprs := make([]relcircuit.MapExpr, 0, len(attrs)+1)
		for _, a := range attrs {
			exprs = append(exprs, relcircuit.MapExpr{As: a, E: expr.Attr(a)})
		}
		exprs = append(exprs, relcircuit.MapExpr{As: cntAttr(v), E: expr.Const(1)})
		n.gate = c.Map(n.gate, exprs, relcircuit.Card(c.Gates[n.gate].Out.Card))
	}

	// Bottom-up: fold each child into its parent with a sum aggregation
	// and a product map (Algorithm 11).
	for _, v := range postOrder(nodes) {
		n, par := nodes[v], nodes[nodes[v].parent]
		f := n.bag.Intersect(par.bag)
		fa := p.attrsOf(f)
		agg := c.Agg(n.gate, fa, relation.AggSum, cntAttr(v), cntAttr(v),
			relcircuit.Card(c.Gates[n.gate].Out.Card).WithDeg(fa, 1))
		joined := c.Join(par.gate, agg, relcircuit.Card(c.Gates[par.gate].Out.Card))
		// Multiply counts.
		attrs := c.Gates[par.gate].Schema
		exprs := make([]relcircuit.MapExpr, 0, len(attrs))
		for _, a := range attrs {
			if a == cntAttr(nodes[v].parent) {
				exprs = append(exprs, relcircuit.MapExpr{
					As: a, E: expr.Mul(expr.Attr(a), expr.Attr(cntAttr(v)))})
			} else {
				exprs = append(exprs, relcircuit.MapExpr{As: a, E: expr.Attr(a)})
			}
		}
		par.gate = c.Map(joined, exprs, relcircuit.Card(c.Gates[par.gate].Out.Card))
		detach(nodes, v)
	}
	root := nodes[0]
	total := c.Agg(root.gate, nil, relation.AggSum, cntAttr(0), CountAttr, relcircuit.Card(1))
	c.MarkOutput(total)
	pruned, mapping := c.Prune()
	return &CountCircuit{Plan: p, Circuit: pruned, Output: mapping[total]}, nil
}

func cntAttr(v int) string { return fmt.Sprintf("cnt·%d", v) }

// CountCtx runs the count circuit and returns |Q(D)| (see
// relcircuit.EvaluateCtx for what ctx governs).
func (cc *CountCircuit) CountCtx(ctx context.Context, db query.Database, check bool) (int, error) {
	pdb, err := panda.PrepareDB(cc.Plan.Query, db)
	if err != nil {
		return 0, err
	}
	outs, err := cc.Circuit.EvaluateCtx(ctx, pdb, check)
	if err != nil {
		return 0, err
	}
	r := outs[cc.Output]
	if r.Len() == 0 {
		return 0, nil
	}
	if r.Len() != 1 {
		return 0, fmt.Errorf("yannakakis: count circuit produced %d tuples", r.Len())
	}
	return int(r.Tuples()[0][r.AttrPos(CountAttr)]), nil
}
