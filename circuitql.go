// Package circuitql evaluates conjunctive queries by circuits,
// implementing "Query Evaluation by Circuits" (Wang & Yi, PODS 2022).
//
// Given a conjunctive query Q and degree constraints DC (cardinality
// bounds, degree bounds, functional dependencies), the library compiles a
// data-independent circuit that computes Q(D) for every database D
// conforming to DC:
//
//   - Compile produces the worst-case-optimal circuit of Theorems 3-4:
//     a PANDA-C relational circuit of polylogarithmic gate count lowered
//     to an oblivious word-level circuit of Õ(1) depth and size matching
//     the polymatroid bound Õ(N + DAPB(Q));
//   - OutputSensitive produces the two circuit families of Theorem 5:
//     one that computes OUT = |Q(D)| from DC alone, and one,
//     parameterized by OUT, that computes Q(D) with size
//     Õ(N + 2^da-fhtw + OUT).
//
// Because the circuits are data independent they are oblivious by
// construction: the sequence of operations never depends on tuple
// values, which is what secure multi-party computation, outsourced query
// processing, and hardware query evaluation need (Section 1 of the
// paper). Bound, width, and proof-sequence machinery (polymatroid bound
// with exact rational LPs, Shannon-flow proof sequences, GHDs and
// degree-aware widths) is exposed for inspection.
//
// A minimal session:
//
//	ctx := context.Background()
//	q, _ := circuitql.ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
//	dcs := circuitql.UniformCardinalities(q, 1024)
//	cq, _ := circuitql.Compile(ctx, q, dcs)
//	out, _ := cq.Evaluate(ctx, db) // any db with |R|,|S|,|T| ≤ 1024
//
// Compilation solves exponential-size exact LPs and searches for a proof
// sequence, so every entry point that can block takes a context first
// and follows one contract:
//
//   - the context's deadline and cancellation are honored inside the
//     hot loops (LP pivots, proof-sequence search, circuit
//     construction, gate evaluation), so calls return promptly;
//   - a *Budget attached with WithBudget caps LP pivots, circuit gate
//     counts, and intermediate-relation rows;
//   - failures carry a typed cause — errors.Is against
//     ErrBudgetExceeded, ErrCanceled, ErrInvalidInput, or ErrInternal
//     classifies them — and panics escaping the internals are converted
//     to ErrInternal instead of crossing the API boundary.
package circuitql

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"circuitql/internal/bitblast"
	"circuitql/internal/bound"
	"circuitql/internal/core"
	"circuitql/internal/ghd"
	"circuitql/internal/guard"
	"circuitql/internal/opt"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
	"circuitql/internal/yannakakis"
)

// Re-exported core types: queries, constraints, and relations.
type (
	// Query is a conjunctive query over a hypergraph with free variables.
	Query = query.Query
	// DegreeConstraint is the triple (X, Y, N) asserting deg(Y|X) ≤ N.
	DegreeConstraint = query.DegreeConstraint
	// DCSet is a set of degree constraints.
	DCSet = query.DCSet
	// Database maps relation names to relations.
	Database = query.Database
	// Relation is a set of tuples over named attributes.
	Relation = relation.Relation
	// Tuple is one row.
	Tuple = relation.Tuple
	// VarSet is a set of query variables.
	VarSet = query.VarSet
)

// NewRelation creates an empty relation with the given attribute names.
func NewRelation(attrs ...string) *Relation { return relation.New(attrs...) }

// ParseQuery parses a datalog-style conjunctive query, e.g.
// "Q(A,C) :- R(A,B), S(B,C)".
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// UniformCardinalities returns the constraint set |R_F| ≤ n for every
// atom of q.
func UniformCardinalities(q *Query, n float64) DCSet { return query.Cardinalities(q, n) }

// DeriveConstraints measures db and returns the tightest degree
// constraints it satisfies (cardinalities plus every degree bound on
// each atom's attribute subsets). Compiling against these yields the
// smallest circuit that still evaluates db and everything dominated by
// it.
func DeriveConstraints(q *Query, db Database) (DCSet, error) { return query.DeriveDC(q, db) }

// EvaluateRAM is the reference (non-circuit) evaluator, used for
// cross-checking. The database is validated upfront (no constraint
// conformance — the RAM evaluator accepts any instance).
func EvaluateRAM(ctx context.Context, q *Query, db Database) (out *Relation, err error) {
	defer guard.Recover(&err)
	if err := query.ValidateDB(q, nil, db); err != nil {
		return nil, err
	}
	return query.EvaluateCtx(ctx, q, db)
}

// CompiledQuery is a fully compiled worst-case-optimal circuit for a
// full conjunctive query (Theorems 3-4).
type CompiledQuery struct {
	inner *core.Compiled
}

// Compile builds the PANDA-C relational circuit and its oblivious
// lowering for a full CQ under the given constraints, then runs the
// internal/opt optimizer passes (CSE, constant/empty propagation,
// dead-gate elimination, level recompaction) over both layers. The exact
// LPs, the proof-sequence search, and both circuit-construction layers
// poll ctx and respect any Budget it carries: a pathological query under
// a tight deadline or gate cap returns ErrBudgetExceeded instead of
// hanging.
func Compile(ctx context.Context, q *Query, dcs DCSet) (*CompiledQuery, error) {
	return CompileOpts(ctx, q, dcs, CompileOptions{})
}

// CompileOptions tunes the compile pipeline; the zero value enables the
// optimizer. NoOpt emits the paper's constructions verbatim.
type CompileOptions = core.CompileOptions

// OptReport is the optimizer's before/after size accounting for one
// compile.
type OptReport = opt.Report

// CompileOpts is Compile with explicit pipeline options.
func CompileOpts(ctx context.Context, q *Query, dcs DCSet, opts CompileOptions) (cq *CompiledQuery, err error) {
	defer guard.Recover(&err)
	inner, err := core.CompileQueryOptsCtx(ctx, q, dcs, opts)
	if err != nil {
		return nil, err
	}
	return &CompiledQuery{inner: inner}, nil
}

// OptimizerReport returns the optimizer's before/after sizes, or nil
// when compilation ran with NoOpt.
func (c *CompiledQuery) OptimizerReport() *OptReport { return c.inner.Opt }

// Evaluate runs the oblivious circuit on db and returns Q(D). The same
// CompiledQuery evaluates any database conforming to the constraints it
// was compiled for. The database is validated upfront against the query
// and the compiled constraint set (missing relations, arity mismatches,
// cardinality or degree overruns surface as ErrInvalidInput before any
// circuit work starts).
func (c *CompiledQuery) Evaluate(ctx context.Context, db Database) (out *Relation, err error) {
	defer guard.Recover(&err)
	if err := query.ValidateDB(c.inner.Query, c.inner.DC, db); err != nil {
		return nil, err
	}
	return c.inner.EvaluateObliviousCtx(ctx, db)
}

// EvaluateRelational runs the relational-circuit layer (faster; same
// result), optionally verifying that every wire conforms to its declared
// bound. The database is validated upfront, as in Evaluate.
func (c *CompiledQuery) EvaluateRelational(ctx context.Context, db Database, check bool) (out *Relation, err error) {
	defer guard.Recover(&err)
	if err := query.ValidateDB(c.inner.Query, c.inner.DC, db); err != nil {
		return nil, err
	}
	return c.inner.EvaluateRelationalCtx(ctx, db, check)
}

// Stats summarizes the compiled circuits.
type Stats struct {
	RelationalGates int     // relational circuit size (Theorem 3: Õ(1))
	RelationalDepth int     // relational circuit depth
	Cost            float64 // relational cost model = oblivious size target
	Gates           int     // oblivious word-level gate count (Theorem 4 size)
	Depth           int     // oblivious depth (Theorem 4: Õ(1))
	DAPB            float64 // polymatroid bound 2^LOGDAPB
}

// Stats reports the circuit sizes and the bound they match.
func (c *CompiledQuery) Stats() Stats {
	return Stats{
		RelationalGates: c.inner.Rel.Size(),
		RelationalDepth: c.inner.Rel.Depth(),
		Cost:            c.inner.Rel.Cost(),
		Gates:           c.inner.Obliv.C.Size(),
		Depth:           c.inner.Obliv.C.Depth(),
		DAPB:            c.inner.Bound.Value(),
	}
}

// BrentSteps returns the number of PRAM steps to evaluate the oblivious
// circuit on p processors (Brent's theorem: ≤ W/p + D).
func (c *CompiledQuery) BrentSteps(p int) int {
	return core.BrentSchedule(c.inner.Obliv.C, p)
}

// GateList renders the relational circuit's gates one per line, for
// inspection (the data-independent "protocol transcript" skeleton).
func (c *CompiledQuery) GateList() []string {
	var out []string
	for _, g := range c.inner.Rel.Gates {
		out = append(out, fmtGate(c.inner.Rel, g.ID))
	}
	return out
}

// SecureCost prices the oblivious circuit for secure computation at the
// given word width (bits per value) and security parameter: total
// bit-level gates, non-linear (AND-equivalent) gates, garbled-circuit
// communication under half-gates with free XOR, and GMW Beaver-triple
// count. Rounds equal the circuit depth.
type SecureCost struct {
	BitGates     int64
	NonLinear    int64
	GarbledBytes int64
	GMWTriples   int64
	Rounds       int
}

// SecureCost computes the MPC/garbling cost model of Section 1.
func (c *CompiledQuery) SecureCost(wordBits, kappaBits int) SecureCost {
	bc := c.inner.Obliv.C.BitCostAt(wordBits)
	return SecureCost{
		BitGates:     bc.Total,
		NonLinear:    bc.NonLinear,
		GarbledBytes: bc.GarbledBytes(kappaBits),
		GMWTriples:   bc.GMWTriples(),
		Rounds:       c.inner.Obliv.C.Depth(),
	}
}

// BitLevel lowers the compiled word-level circuit to a literal Boolean
// circuit (every wire one bit; gates AND/OR/XOR only) at the given word
// width, returning its gate count and depth — the paper's strict §4.1
// model made concrete. Width must be 64 when the defaults are in play
// (the dummy-handling sentinel needs the full word). The bit-level
// circuit counts against a Budget's gate cap while it is built.
func (c *CompiledQuery) BitLevel(ctx context.Context, width int) (gates, depth int, err error) {
	defer guard.Recover(&err)
	res, err := bitblast.BlastCtx(ctx, c.inner.Obliv.C, width)
	if err != nil {
		return 0, 0, err
	}
	return res.C.Size(), res.C.Depth(), nil
}

// WriteArtifact serializes the oblivious circuit with its packing
// metadata — the object an outsourced-processing server or MPC party
// receives. Load it back with LoadArtifact.
func (c *CompiledQuery) WriteArtifact(w io.Writer) (int64, error) {
	return c.inner.Obliv.WriteTo(w)
}

// Artifact is a loaded oblivious circuit: evaluable, but without the
// compile-time metadata of a CompiledQuery.
type Artifact struct {
	oc *core.ObliviousCircuit
}

// LoadArtifact deserializes a circuit written by WriteArtifact.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	oc, err := core.ReadObliviousCircuit(r)
	if err != nil {
		return nil, err
	}
	return &Artifact{oc: oc}, nil
}

// Evaluate runs the loaded circuit; db must be keyed and shaped as the
// artifact's input specs demand (for PANDA artifacts: panda.PrepareDB
// naming, which EvaluatePrepared of the original CompiledQuery used).
func (a *Artifact) Evaluate(ctx context.Context, db map[string]*Relation) (out map[int]*Relation, err error) {
	defer guard.Recover(&err)
	return a.oc.EvaluateCtx(ctx, db)
}

// Gates returns the loaded circuit's word-gate count.
func (a *Artifact) Gates() int { return a.oc.C.Size() }

// Depth returns the loaded circuit's depth.
func (a *Artifact) Depth() int { return a.oc.C.Depth() }

// WriteDot renders the relational circuit in Graphviz DOT format.
func (c *CompiledQuery) WriteDot(w io.Writer, name string) error {
	return c.inner.Rel.WriteDot(w, name)
}

// PrepareInputs renames the atom relations of db to the input layout the
// circuits (and artifacts) expect.
func (c *CompiledQuery) PrepareInputs(db Database) (map[string]*Relation, error) {
	return panda.PrepareDB(c.inner.Query, db)
}

func fmtGate(rc *relcircuit.Circuit, id int) string {
	g := rc.Gates[id]
	return fmt.Sprintf("g%d: %s %s in=%v schema=%v card≤%.6g", g.ID, g.Kind, g.Label, g.In, g.Schema, g.Out.Card)
}

// ParseConstraints parses a textual degree-constraint list, e.g.
// "R <= 100; S <= 50; S|B <= 4" (see internal/query.ParseDC for the
// grammar).
func ParseConstraints(q *Query, src string) (DCSet, error) { return query.ParseDC(q, src) }

// BooleanQuery is a compiled decision circuit for a Boolean CQ.
type BooleanQuery struct {
	inner *core.BooleanCircuit
}

// CompileBoolean compiles a Boolean conjunctive query (no free
// variables) into an oblivious decision circuit (see Compile for what
// ctx governs).
func CompileBoolean(ctx context.Context, q *Query, dcs DCSet) (bq *BooleanQuery, err error) {
	defer guard.Recover(&err)
	bc, err := core.CompileBooleanCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	return &BooleanQuery{inner: bc}, nil
}

// Decide evaluates the decision circuit on db.
func (b *BooleanQuery) Decide(ctx context.Context, db Database) (ok bool, err error) {
	defer guard.Recover(&err)
	return b.inner.DecideCtx(ctx, db)
}

// Stats returns the decision circuit's word-gate count and depth.
func (b *BooleanQuery) Stats() (gates, depth int) {
	return b.inner.Obliv.C.Size(), b.inner.Obliv.C.Depth()
}

// PolymatroidBound returns LOGDAPB(Q) in bits (log₂ of the worst-case
// output size bound) under the constraints.
func PolymatroidBound(ctx context.Context, q *Query, dcs DCSet) (r *big.Rat, err error) {
	defer guard.Recover(&err)
	res, err := bound.LogDAPBCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	return res.LogValue, nil
}

// Widths bundles the width measures of Sections 6-7.
type Widths struct {
	Fhtw   *big.Rat // fractional hypertree width (uniform-N exponent)
	DAFhtw *big.Rat // degree-aware fhtw in bits under the constraints
	DASubw *big.Rat // degree-aware submodular width in bits
}

// ComputeWidths returns fhtw, da-fhtw, and da-subw for the query
// (free-connex variants for non-full queries).
func ComputeWidths(ctx context.Context, q *Query, dcs DCSet) (w Widths, err error) {
	defer guard.Recover(&err)
	f, _, err := ghd.FhtwCtx(ctx, q)
	if err != nil {
		return w, err
	}
	df, _, err := ghd.DAFhtwCtx(ctx, q, dcs)
	if err != nil {
		return w, err
	}
	ds, err := ghd.DASubwCtx(ctx, q, dcs, 24)
	if err != nil {
		return w, err
	}
	w.Fhtw, w.DAFhtw, w.DASubw = f, df, ds
	return w, nil
}

// OutputSensitiveQuery bundles the two circuit families of Theorem 5.
type OutputSensitiveQuery struct {
	plan  *yannakakis.Plan
	count *yannakakis.CountCircuit
}

// OutputSensitive prepares the output-sensitive pipeline: a GHD plan of
// degree-aware-fhtw-optimal width and the OUT-computing circuit. The
// width search, the per-bag PANDA-C compilations, and the count-circuit
// construction all poll ctx and respect any Budget it carries.
func OutputSensitive(ctx context.Context, q *Query, dcs DCSet) (o *OutputSensitiveQuery, err error) {
	defer guard.Recover(&err)
	plan, err := yannakakis.NewPlanCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	cc, err := plan.CompileCountCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &OutputSensitiveQuery{plan: plan, count: cc}, nil
}

// Count evaluates the first circuit family: |Q(D)| from DC alone.
func (o *OutputSensitiveQuery) Count(ctx context.Context, db Database) (n int, err error) {
	defer guard.Recover(&err)
	return o.count.CountCtx(ctx, db, false)
}

// EvalCircuit builds the second circuit family for a given output bound;
// it computes Q(D) for every conforming D with |Q(D)| ≤ out.
func (o *OutputSensitiveQuery) EvalCircuit(ctx context.Context, out int) (ec *yannakakis.EvalCircuit, err error) {
	defer guard.Recover(&err)
	return o.plan.CompileEvalCtx(ctx, float64(out))
}

// Evaluate runs the full two-phase protocol: count, then build and run
// the evaluation circuit with OUT = |Q(D)|.
func (o *OutputSensitiveQuery) Evaluate(ctx context.Context, db Database) (out *Relation, err error) {
	defer guard.Recover(&err)
	n, err := o.count.CountCtx(ctx, db, false)
	if err != nil {
		return nil, err
	}
	ec, err := o.plan.CompileEvalCtx(ctx, float64(n))
	if err != nil {
		return nil, err
	}
	return ec.EvaluateCtx(ctx, db, false)
}

// CountCircuitStats reports the OUT-circuit's relational stats.
func (o *OutputSensitiveQuery) CountCircuitStats() (gates, depth int, cost float64) {
	return o.count.Circuit.Size(), o.count.Circuit.Depth(), o.count.Circuit.Cost()
}

// WidthBits returns the plan's da-fhtw in bits.
func (o *OutputSensitiveQuery) WidthBits() *big.Rat { return o.plan.Width }
