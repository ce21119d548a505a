// Package relcircuit implements the paper's relational circuits (Section
// 4.3): directed acyclic graphs whose wires carry relations bounded by
// declared cardinality and degree constraints, and whose gates are the
// extended relational operators — selection, projection, natural join,
// union, group-by aggregation, ordering (τ), and map (ρ).
//
// A relational circuit is data independent: it is built from the query
// and the degree constraints only, and must evaluate correctly on every
// database instance conforming to those constraints. The package provides
// a builder, a reference evaluator (with optional verification that every
// wire conforms to its declared bounds), and the paper's cost model,
// which the oblivious compiler (package core) matches gate by gate.
package relcircuit

import (
	"context"
	"fmt"
	"math"

	"circuitql/internal/expr"
	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/relation"
)

// DegBound asserts deg_On(R) ≤ N for the relation on a wire.
type DegBound struct {
	On []string
	N  float64
}

// Bound describes the constraints declared on a wire: a cardinality bound
// and any number of degree bounds.
type Bound struct {
	Card float64
	Degs []DegBound
}

// Card returns a bound with only a cardinality constraint.
func Card(n float64) Bound { return Bound{Card: n} }

// WithDeg returns a copy of b with an additional degree bound.
func (b Bound) WithDeg(on []string, n float64) Bound {
	degs := make([]DegBound, 0, len(b.Degs)+1)
	degs = append(degs, b.Degs...)
	degs = append(degs, DegBound{On: append([]string(nil), on...), N: n})
	return Bound{Card: b.Card, Degs: degs}
}

// DegOn returns the tightest declared degree bound applicable to the
// attribute set attrs: the minimum over declared bounds whose On set is
// contained in attrs (conditioning on more attributes cannot increase the
// degree), defaulting to the cardinality bound.
func (b Bound) DegOn(attrs []string) float64 {
	best := b.Card
	set := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		set[a] = true
	}
	for _, d := range b.Degs {
		ok := true
		for _, a := range d.On {
			if !set[a] {
				ok = false
				break
			}
		}
		if ok && d.N < best {
			best = d.N
		}
	}
	return best
}

// Kind enumerates relational gate kinds.
type Kind int

// Gate kinds.
const (
	KindInput Kind = iota
	KindSelect
	KindProject
	KindJoin
	KindUnion
	KindAgg
	KindOrder
	KindMap
	KindCap
)

// String returns the gate-kind name.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindSelect:
		return "σ"
	case KindProject:
		return "Π"
	case KindJoin:
		return "⋈"
	case KindUnion:
		return "∪"
	case KindAgg:
		return "Πagg"
	case KindOrder:
		return "τ"
	case KindMap:
		return "ρ"
	case KindCap:
		return "cap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MapExpr is one output column of a map gate.
type MapExpr struct {
	As string
	E  expr.Expr
}

// Gate is one node of a relational circuit.
type Gate struct {
	ID     int
	Kind   Kind
	In     []int    // input gate ids (all < ID)
	Schema []string // output schema
	Out    Bound    // declared bound on the output wire
	Label  string   // human-readable annotation for debugging/rendering

	// Kind-specific parameters.
	Name     string           // KindInput: relation name in the database
	Pred     expr.Expr        // KindSelect
	Attrs    []string         // KindProject: kept attrs; KindOrder: sort keys
	GroupBy  []string         // KindAgg
	AggKind  relation.AggKind // KindAgg
	AggOver  string           // KindAgg (ignored for count)
	AggAs    string           // KindAgg: output column name
	MapExprs []MapExpr        // KindMap
}

// Circuit is a relational circuit: gates in topological order plus
// designated outputs.
type Circuit struct {
	Gates   []Gate
	Outputs []int
}

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

func (c *Circuit) push(g Gate) int {
	g.ID = len(c.Gates)
	for _, in := range g.In {
		if in < 0 || in >= g.ID {
			panic(fmt.Sprintf("relcircuit: gate %d reads from invalid gate %d", g.ID, in))
		}
	}
	c.Gates = append(c.Gates, g)
	return g.ID
}

func (c *Circuit) schemaOf(id int) []string { return c.Gates[id].Schema }

func hasAttr(schema []string, a string) bool {
	for _, s := range schema {
		if s == a {
			return true
		}
	}
	return false
}

func commonAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		if hasAttr(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func joinSchema(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, x := range b {
		if !hasAttr(a, x) {
			out = append(out, x)
		}
	}
	return out
}

// Input adds an input gate reading the named relation; its declared bound
// is part of the circuit's contract with the data.
func (c *Circuit) Input(name string, schema []string, b Bound) int {
	return c.push(Gate{Kind: KindInput, Name: name, Schema: append([]string(nil), schema...), Out: b, Label: name})
}

// Select adds σ_pred over gate in. The predicate must only read input
// attributes.
func (c *Circuit) Select(in int, pred expr.Expr, b Bound) int {
	schema := c.schemaOf(in)
	for _, a := range expr.Attrs(pred) {
		if !hasAttr(schema, a) {
			panic(fmt.Sprintf("relcircuit: selection predicate reads %q not in schema %v", a, schema))
		}
	}
	return c.push(Gate{Kind: KindSelect, In: []int{in}, Pred: pred, Schema: append([]string(nil), schema...), Out: b,
		Label: fmt.Sprintf("σ[%s]", pred)})
}

// Project adds Π_attrs over gate in.
func (c *Circuit) Project(in int, attrs []string, b Bound) int {
	schema := c.schemaOf(in)
	for _, a := range attrs {
		if !hasAttr(schema, a) {
			panic(fmt.Sprintf("relcircuit: projection attr %q not in schema %v", a, schema))
		}
	}
	return c.push(Gate{Kind: KindProject, In: []int{in}, Attrs: append([]string(nil), attrs...),
		Schema: append([]string(nil), attrs...), Out: b, Label: fmt.Sprintf("Π%v", attrs)})
}

// Join adds the natural join of gates r and s. By the paper's cost model
// the first input plays the role of R (|R| ≤ M) and the second of S
// (deg_F(S) ≤ N, |S| ≤ N', F the common attributes).
func (c *Circuit) Join(r, s int, b Bound) int {
	schema := joinSchema(c.schemaOf(r), c.schemaOf(s))
	return c.push(Gate{Kind: KindJoin, In: []int{r, s}, Schema: schema, Out: b,
		Label: fmt.Sprintf("⋈%v", commonAttrs(c.schemaOf(r), c.schemaOf(s)))})
}

// Union adds r ∪ s; the inputs must have the same attribute set.
func (c *Circuit) Union(r, s int, b Bound) int {
	rs, ss := c.schemaOf(r), c.schemaOf(s)
	if len(rs) != len(ss) {
		panic(fmt.Sprintf("relcircuit: union schema mismatch %v vs %v", rs, ss))
	}
	for _, a := range rs {
		if !hasAttr(ss, a) {
			panic(fmt.Sprintf("relcircuit: union schema mismatch %v vs %v", rs, ss))
		}
	}
	return c.push(Gate{Kind: KindUnion, In: []int{r, s}, Schema: append([]string(nil), rs...), Out: b, Label: "∪"})
}

// Agg adds the group-by aggregation Π_{group, agg(over) as as}.
func (c *Circuit) Agg(in int, group []string, kind relation.AggKind, over, as string, b Bound) int {
	schema := c.schemaOf(in)
	for _, a := range group {
		if !hasAttr(schema, a) {
			panic(fmt.Sprintf("relcircuit: group attr %q not in schema %v", a, schema))
		}
	}
	if kind != relation.AggCount && !hasAttr(schema, over) {
		panic(fmt.Sprintf("relcircuit: aggregate attr %q not in schema %v", over, schema))
	}
	out := append(append([]string(nil), group...), as)
	return c.push(Gate{Kind: KindAgg, In: []int{in}, GroupBy: append([]string(nil), group...),
		AggKind: kind, AggOver: over, AggAs: as, Schema: out, Out: b,
		Label: fmt.Sprintf("Π%v,%s(%s)", group, kind, over)})
}

// Order adds the ordering operator τ_attrs, appending the position column
// relation.OrderAttr to the schema.
func (c *Circuit) Order(in int, attrs []string, b Bound) int {
	schema := c.schemaOf(in)
	for _, a := range attrs {
		if !hasAttr(schema, a) {
			panic(fmt.Sprintf("relcircuit: order attr %q not in schema %v", a, schema))
		}
	}
	if hasAttr(schema, relation.OrderAttr) {
		panic("relcircuit: ordering a relation that already has an order column")
	}
	out := append(append([]string(nil), schema...), relation.OrderAttr)
	return c.push(Gate{Kind: KindOrder, In: []int{in}, Attrs: append([]string(nil), attrs...),
		Schema: out, Out: b, Label: fmt.Sprintf("τ%v", attrs)})
}

// Map adds the map operator ρ: one output column per expression.
func (c *Circuit) Map(in int, exprs []MapExpr, b Bound) int {
	schema := c.schemaOf(in)
	var out []string
	for _, me := range exprs {
		for _, a := range expr.Attrs(me.E) {
			if !hasAttr(schema, a) {
				panic(fmt.Sprintf("relcircuit: map expression reads %q not in schema %v", a, schema))
			}
		}
		out = append(out, me.As)
	}
	return c.push(Gate{Kind: KindMap, In: []int{in}, MapExprs: append([]MapExpr(nil), exprs...),
		Schema: out, Out: b, Label: "ρ"})
}

// Cap adds the truncation operator of Section 5.3: the relational
// identity with a smaller declared cardinality bound. The caller asserts
// that every conforming instance fits the new bound; the oblivious
// compiler realizes it as sort-dummies-last plus discarding trailing
// slots, shrinking downstream circuit capacity.
func (c *Circuit) Cap(in int, b Bound) int {
	schema := c.schemaOf(in)
	return c.push(Gate{Kind: KindCap, In: []int{in}, Schema: append([]string(nil), schema...), Out: b,
		Label: fmt.Sprintf("cap[%g]", b.Card)})
}

// MarkOutput designates gate id as a circuit output.
func (c *Circuit) MarkOutput(id int) {
	if id < 0 || id >= len(c.Gates) {
		panic("relcircuit: invalid output gate")
	}
	c.Outputs = append(c.Outputs, id)
}

// Size returns the number of gates (the paper's circuit size at the
// relational level, which Theorem 3 bounds by Õ(1)).
func (c *Circuit) Size() int { return len(c.Gates) }

// Depth returns the longest input-to-output path length in gates.
func (c *Circuit) Depth() int {
	depth := make([]int, len(c.Gates))
	maxDepth := 0
	for i, g := range c.Gates {
		d := 0
		for _, in := range g.In {
			if depth[in] > d {
				d = depth[in]
			}
		}
		if g.Kind != KindInput {
			d++
		}
		depth[i] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// GateCost returns the paper's cost of gate g (Section 4.3, bounded-wire
// cost model): selection/projection/aggregation/ordering/map cost N (the
// input cardinality bound); union costs M+N; a join of R (|R| ≤ M) with S
// (deg_F(S) ≤ N, |S| ≤ N') costs M·N + N'. Inputs are free.
func (c *Circuit) GateCost(g Gate) float64 {
	switch g.Kind {
	case KindInput:
		return 0
	case KindSelect, KindProject, KindAgg, KindOrder, KindMap, KindCap:
		return c.Gates[g.In[0]].Out.Card
	case KindUnion:
		return c.Gates[g.In[0]].Out.Card + c.Gates[g.In[1]].Out.Card
	case KindJoin:
		r, s := c.Gates[g.In[0]], c.Gates[g.In[1]]
		f := commonAttrs(r.Schema, s.Schema)
		return r.Out.Card*s.Out.DegOn(f) + s.Out.Card
	}
	panic(fmt.Sprintf("relcircuit: unknown gate kind %v", g.Kind))
}

// Cost returns the total cost of the circuit: the sum of all gate costs
// on the declared bounds (instance independent).
func (c *Circuit) Cost() float64 {
	total := 0.0
	for _, g := range c.Gates {
		total += c.GateCost(g)
	}
	return total
}

// Stats summarizes a circuit.
type Stats struct {
	Gates int
	Depth int
	Cost  float64
}

// Stats returns gate count, depth, and total cost.
func (c *Circuit) StatsOf() Stats {
	return Stats{Gates: c.Size(), Depth: c.Depth(), Cost: c.Cost()}
}

// String renders the circuit gate list for debugging.
func (c *Circuit) String() string {
	s := ""
	for _, g := range c.Gates {
		s += fmt.Sprintf("g%d: %s %s in=%v schema=%v card≤%.6g\n", g.ID, g.Kind, g.Label, g.In, g.Schema, g.Out.Card)
	}
	s += fmt.Sprintf("outputs=%v", c.Outputs)
	return s
}

// boundViolation describes a wire whose relation exceeds its declared
// bound during checked evaluation.
type boundViolation struct {
	gate int
	msg  string
}

func (e *boundViolation) Error() string {
	return fmt.Sprintf("relcircuit: gate %d violates declared bound: %s", e.gate, e.msg)
}

func checkBound(id int, r *relation.Relation, b Bound) error {
	if float64(r.Len()) > b.Card+1e-9 {
		return &boundViolation{gate: id, msg: fmt.Sprintf("|R| = %d > %g", r.Len(), b.Card)}
	}
	for _, d := range b.Degs {
		ok := true
		for _, a := range d.On {
			if !r.HasAttr(a) {
				ok = false // degree bound on attrs absent from the wire: vacuous
				break
			}
		}
		if !ok {
			continue
		}
		if got := float64(r.Degree(d.On...)); got > d.N+1e-9 {
			return &boundViolation{gate: id, msg: fmt.Sprintf("deg_%v = %g > %g", d.On, got, d.N)}
		}
	}
	return nil
}

// EvaluateCtx runs the circuit on db: each input gate reads
// db[gate.Name], which must carry exactly the gate's attribute set. When
// check is true, every wire (including inputs) is verified against its
// declared bound, and a violation aborts evaluation — this is how tests
// establish that the compiler's bound bookkeeping is sound. The result
// maps output gate ids to relations.
//
// The gate loop polls ctx, charges each materialised wire against any
// guard.Budget row cap, and reports each gate to any
// faultinject.Injector carried by ctx. The whole pass runs under one obs
// relcircuit-eval span counting gates evaluated and rows materialized
// (the spans are per evaluation, never per gate, so tracing costs
// nothing on the gate loop).
func (c *Circuit) EvaluateCtx(ctx context.Context, db map[string]*relation.Relation, check bool) (_ map[int]*relation.Relation, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageRelEval)
	rows := int64(0)
	defer func() {
		sp.AddInt(obs.CounterRelGates, int64(len(c.Gates)))
		sp.AddInt(obs.CounterRows, rows)
		sp.SetError(err)
		sp.End()
	}()
	budget := guard.FromContext(ctx)
	inj := faultinject.FromContext(ctx)
	vals := make([]*relation.Relation, len(c.Gates))
	for i, g := range c.Gates {
		if err := guard.Poll(ctx); err != nil {
			return nil, err
		}
		if err := inj.Hit(faultinject.SiteRelGate); err != nil {
			return nil, fmt.Errorf("relcircuit: gate %d: %w", i, err)
		}
		var out *relation.Relation
		switch g.Kind {
		case KindInput:
			r, ok := db[g.Name]
			if !ok {
				return nil, fmt.Errorf("relcircuit: database missing relation %q", g.Name)
			}
			for _, a := range g.Schema {
				if !r.HasAttr(a) {
					return nil, fmt.Errorf("relcircuit: relation %q lacks attribute %q", g.Name, a)
				}
			}
			if r.Arity() != len(g.Schema) {
				return nil, fmt.Errorf("relcircuit: relation %q has arity %d, want %d", g.Name, r.Arity(), len(g.Schema))
			}
			out = r
		case KindSelect:
			in := vals[g.In[0]]
			pred := g.Pred
			out = in.Select(func(t relation.Tuple) bool {
				return pred.Eval(func(a string) int64 { return in.Value(t, a) }) != 0
			})
		case KindProject:
			out = vals[g.In[0]].Project(g.Attrs...)
		case KindJoin:
			out = vals[g.In[0]].NaturalJoin(vals[g.In[1]])
		case KindUnion:
			out = vals[g.In[0]].Union(vals[g.In[1]])
		case KindAgg:
			out = vals[g.In[0]].Aggregate(g.GroupBy, g.AggKind, g.AggOver, g.AggAs)
		case KindOrder:
			out = vals[g.In[0]].Order(g.Attrs...)
		case KindCap:
			out = vals[g.In[0]]
		case KindMap:
			in := vals[g.In[0]]
			out = relation.New(g.Schema...)
			row := make([]int64, len(g.MapExprs))
			in.Each(func(t relation.Tuple) {
				for k, me := range g.MapExprs {
					row[k] = me.E.Eval(func(a string) int64 { return in.Value(t, a) })
				}
				out.Insert(row...)
			})
		default:
			return nil, fmt.Errorf("relcircuit: unknown gate kind %v", g.Kind)
		}
		if err := budget.CheckRows(out.Len()); err != nil {
			return nil, fmt.Errorf("relcircuit: gate %d: %w", i, err)
		}
		if check {
			if err := checkBound(i, out, g.Out); err != nil {
				return nil, err
			}
		}
		rows += int64(out.Len())
		vals[i] = out
	}
	res := make(map[int]*relation.Relation, len(c.Outputs))
	for _, id := range c.Outputs {
		res[id] = vals[id]
	}
	return res, nil
}

// Ceil rounds a bound value up to an integer capacity (used when sizing
// oblivious wire bundles).
func Ceil(v float64) int {
	c := int(math.Ceil(v - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}
