// Package panda implements PANDA-C (Section 4.4): a query compiler that,
// given a conjunctive query, degree constraints DC, and a Shannon-flow
// proof sequence, generates a relational circuit (package relcircuit)
// computing a superset of the target projection of the query, with
// polylogarithmic relational-gate count and total cost Õ(N + DAPB(Q))
// (Theorem 3). The circuit is data independent: everything here depends
// only on (Q, DC), never on a database instance.
//
// The compiler walks the proof sequence and materializes each step:
//
//   - submodularity steps only rewrite the δ bookkeeping (no gates);
//   - monotonicity steps emit a projection gate (Algorithm 1, lines 7-11);
//   - decomposition steps emit the decomposition circuit of Algorithm 2
//     and fork the compilation into 2k = O(log N) branches whose results
//     are unioned (lines 12-19);
//   - composition steps emit a join (+ projection onto Y) when the joined
//     size fits under DAPB (lines 20-27), and otherwise take the
//     truncation path (lines 28-31): re-derive a fresh Shannon-flow
//     inequality and proof sequence from the degree constraints of every
//     relation accumulated so far, and continue from those.
//
// The truncation path deviates from [25, Lemma 5.11] in one documented
// way (see DESIGN.md): instead of truncating the current inequality we
// recompute the full bound over the accumulated constraint set, which is
// sound (all accumulated guards are genuine relations with genuine
// constraints) and produces circuits with the same asymptotic cost on the
// evaluation suite.
package panda

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sort"

	"circuitql/internal/bound"
	rguard "circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/proofseq"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
)

// guard is a relation (a circuit gate) guarding a degree constraint
// (Z, W, N): the gate's schema is exactly the attributes of W and
// deg(W|Z) ≤ N holds on it. Cardinality guards have Z = ∅ and N = |R_W|
// bound.
type guard struct {
	gate int
	z, w query.VarSet
	n    float64
}

// term is one entry of the δ vector with its guard attached: weight w on
// the conditional h(Y|X), guarded by g (with g.z ⊆ X and Y\X ⊆ g.w\g.z).
type term struct {
	x, y query.VarSet
	wt   *big.Rat
	g    guard
}

// CompileResult is the output of Compile.
type CompileResult struct {
	Circuit   *relcircuit.Circuit
	Output    int // gate carrying the cleaned result over the target attributes
	RawOutput int // gate carrying the pre-cleanup union (may hold false positives)
	Bound     *bound.Result
	Seq       proofseq.Sequence
	Restarts  int // truncation-path re-derivations taken
}

// maxRestartDepth bounds truncation-path recursion along any single
// compilation path (each decomposition branch may restart independently,
// so the global restart count grows with log N; the per-path depth must
// stay constant).
const maxRestartDepth = 8

type compiler struct {
	q        *query.Query
	ctx      context.Context
	budget   *rguard.Budget
	target   query.VarSet
	c        *relcircuit.Circuit
	dapb     float64 // 2^LOGDAPB, the global budget of Algorithm 1 line 23
	restarts int
	inputIDs map[int]int // atom index -> input gate

	// restartCache memoizes truncation re-derivations by the multiset of
	// available constraints: decomposition branches at the same level
	// have identical constraint shapes (only their guard gates differ),
	// so the fresh inequality and proof sequence can be shared.
	restartCache map[string]*restartEntry
}

type restartEntry struct {
	res   *bound.Result
	seq   proofseq.Sequence
	delta proofseq.Vec
}

// CompileCtx runs PANDA-C for the target variable set (the full set for
// an FCQ; a bag for GHD-based evaluation). The result's Output gate
// carries exactly Π_target(⋈ of the atoms with variables ⊆ target)
// restricted to tuples compatible with every atom — i.e. the bag relation
// the Yannakakis phases consume. For a full CQ this is exactly Q(D).
//
// The proof-sequence search, the exact LPs, and the circuit-construction
// loops all poll ctx, and gate emission is charged against any
// rguard.Budget attached to ctx.
func CompileCtx(ctx context.Context, q *query.Query, dcs query.DCSet, target query.VarSet) (*CompileResult, error) {
	c := relcircuit.New()
	res, err := CompileIntoCtx(ctx, c, nil, q, dcs, target)
	if err != nil {
		return nil, err
	}
	c.MarkOutput(res.Output)
	// Truncation restarts abandon the gates of the plans they replace;
	// drop everything unreachable from the output before handing the
	// circuit onward.
	pruned, mapping := c.Prune()
	res.Circuit = pruned
	res.Output = mapping[res.Output]
	if n, ok := mapping[res.RawOutput]; ok {
		res.RawOutput = n
	} else {
		res.RawOutput = res.Output
	}
	return res, nil
}

// CompileIntoCtx runs PANDA-C into an existing circuit (see CompileCtx
// for what ctx governs). inputs maps atom indices to already-created
// input gates (as built by BuildInputs); pass nil to create fresh input
// gates. The output gate is NOT marked as a circuit output — callers
// composing several PANDA subcircuits (the Yannakakis circuits compute
// one bag per GHD node over shared inputs) wire it onward themselves.
func CompileIntoCtx(ctx context.Context, c *relcircuit.Circuit, inputs map[int]int, q *query.Query, dcs query.DCSet, target query.VarSet) (*CompileResult, error) {
	if err := q.Validate(); err != nil {
		return nil, rguard.Invalidf("%v", err)
	}
	if err := dcs.Validate(q); err != nil {
		return nil, rguard.Invalidf("%v", err)
	}
	// Stage 1: the Shannon-flow bound — exact LPs whose dual witness
	// seeds the proof-sequence search. Solves/pivots accumulate onto the
	// lp-solve span (see lp.SolveCtx).
	lpCtx, lpSpan := obs.StartSpan(ctx, obs.StageLPSolve)
	res, err := bound.LogBoundCtx(lpCtx, q, dcs, target)
	lpSpan.SetError(err)
	lpSpan.End()
	if err != nil {
		return nil, err
	}
	// Stage 2: proof-sequence search (spans itself).
	seq, delta, err := proofseq.BuildCtx(ctx, q, res)
	if err != nil {
		return nil, err
	}

	// Stage 3: relational-circuit emission. Truncation-path restarts
	// re-derive bounds and sequences, so nested lp-solve/proofseq spans
	// may appear under this one.
	ctx, emitSpan := obs.StartSpan(ctx, obs.StageRelCirc)
	gatesBefore := c.Size()
	defer func() {
		emitSpan.AddInt(obs.CounterRelGates, int64(c.Size()-gatesBefore))
		emitSpan.End()
	}()

	if inputs == nil {
		inputs = BuildInputs(c, q, dcs)
	}
	co := &compiler{
		q:        q,
		ctx:      ctx,
		budget:   rguard.FromContext(ctx),
		target:   target,
		c:        c,
		dapb:     res.Value(),
		inputIDs: inputs,

		restartCache: make(map[string]*restartEntry),
	}
	registry := co.registryFromInputs(dcs)

	// Initial δ terms with guards: one per dual term, guarded by the
	// constraint's atom relation.
	var terms []term
	for p, w := range delta {
		g, ok := findGuard(registry, p.X, p.Y, -1)
		if !ok {
			return nil, fmt.Errorf("panda: no guard for initial term h(%s|%s)",
				p.Y.Label(q.VarNames), p.X.Label(q.VarNames))
		}
		terms = append(terms, term{x: p.X, y: p.Y, wt: new(big.Rat).Set(w), g: g})
	}
	sortTerms(terms)

	raw, err := co.compile(terms, seq, registry, 0)
	if err != nil {
		emitSpan.SetError(err)
		return nil, err
	}
	emitSpan.AddInt(obs.CounterRestarts, int64(co.restarts))
	out := co.cleanup(raw)
	return &CompileResult{
		Circuit:   co.c,
		Output:    out,
		RawOutput: raw,
		Bound:     res,
		Seq:       seq,
		Restarts:  co.restarts,
	}, nil
}

// CompileFCQCtx compiles the full query (target = all variables; see
// CompileCtx).
func CompileFCQCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*CompileResult, error) {
	return CompileCtx(ctx, q, dcs, q.AllVars())
}

// InputName returns the database key for atom i used by PANDA circuits
// (unique even under self-joins).
func InputName(q *query.Query, i int) string {
	return fmt.Sprintf("%s#%d", q.Atoms[i].Name, i)
}

// PrepareDB renames each atom's relation to the query's variable names
// and keys it by InputName, producing the database a PANDA circuit
// evaluates against.
func PrepareDB(q *query.Query, db query.Database) (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := query.AtomRelation(q, db, a)
		if err != nil {
			return nil, err
		}
		out[InputName(q, i)] = r
	}
	return out, nil
}

// attrsOf maps a variable set to attribute names.
func (co *compiler) attrsOf(s query.VarSet) []string { return s.Names(co.q.VarNames) }

// BuildInputs creates one input gate per atom with its declared
// constraints attached (cardinality, degree bounds, and the trivial
// deg = 1 on the full attribute set used by semijoin costing) and
// returns the atom-index-to-gate map CompileIntoCtx consumes.
func BuildInputs(c *relcircuit.Circuit, q *query.Query, dcs query.DCSet) map[int]int {
	inputs := make(map[int]int, len(q.Atoms))
	for i, a := range q.Atoms {
		f := a.VarSet()
		fa := f.Names(q.VarNames)
		b := relcircuit.Bound{Card: math.Inf(1)}
		for _, dc := range dcs {
			if dc.Y != f {
				continue
			}
			if dc.X.Empty() {
				if dc.N < b.Card {
					b.Card = dc.N
				}
			} else {
				b = b.WithDeg(dc.X.Names(q.VarNames), dc.N)
			}
		}
		b = b.WithDeg(fa, 1) // tuples are distinct
		inputs[i] = c.Input(InputName(q, i), fa, b)
	}
	return inputs
}

// registryFromInputs derives the initial guard registry from the input
// gates: every input guards its cardinality constraint and each degree
// constraint declared on its edge.
func (co *compiler) registryFromInputs(dcs query.DCSet) []guard {
	var registry []guard
	for i, a := range co.q.Atoms {
		f := a.VarSet()
		id, ok := co.inputIDs[i]
		if !ok {
			continue
		}
		registry = append(registry, guard{gate: id, z: 0, w: f, n: co.c.Gates[id].Out.Card})
		for _, dc := range dcs {
			if dc.Y == f && !dc.X.Empty() {
				registry = append(registry, guard{gate: id, z: dc.X, w: f, n: dc.N})
			}
		}
	}
	return registry
}

// findGuard locates a registry guard for constraint (x, y) with bound n
// (n < 0 matches any bound, preferring the tightest).
func findGuard(registry []guard, x, y query.VarSet, n float64) (guard, bool) {
	best := guard{}
	found := false
	for _, g := range registry {
		if g.z != x || g.w != y {
			continue
		}
		if n >= 0 {
			if ratioClose(g.n, n) {
				return g, true
			}
			continue
		}
		if !found || g.n < best.n {
			best, found = g, true
		}
	}
	if found {
		return best, true
	}
	return guard{}, false
}

func ratioClose(a, b float64) bool {
	if a == b {
		return true
	}
	if a <= 0 || b <= 0 {
		return false
	}
	r := a / b
	return r > 0.999999 && r < 1.000001
}

func sortTerms(ts []term) {
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].y != ts[j].y {
			return ts[i].y < ts[j].y
		}
		if ts[i].x != ts[j].x {
			return ts[i].x < ts[j].x
		}
		return ts[i].wt.Cmp(ts[j].wt) > 0
	})
}

// cloneTerms deep-copies a term list.
func cloneTerms(ts []term) []term {
	out := make([]term, len(ts))
	for i, t := range ts {
		out[i] = term{x: t.x, y: t.y, wt: new(big.Rat).Set(t.wt), g: t.g}
	}
	return out
}

// portion is a piece of a term consumed by a step.
type portion struct {
	amount *big.Rat
	g      guard
}

// consume removes up to total weight from terms matching (x, y),
// largest entries first, returning the consumed portions. It fails if
// the available weight is insufficient (the proof sequence was verified,
// so this indicates an internal inconsistency).
func consume(terms []term, x, y query.VarSet, total *big.Rat) ([]term, []portion, error) {
	remaining := new(big.Rat).Set(total)
	var portions []portion
	out := terms[:0:0]
	out = append(out, terms...)
	sort.SliceStable(out, func(i, j int) bool {
		mi := out[i].x == x && out[i].y == y
		mj := out[j].x == x && out[j].y == y
		if mi != mj {
			return mi
		}
		return out[i].wt.Cmp(out[j].wt) > 0
	})
	for i := range out {
		if remaining.Sign() <= 0 {
			break
		}
		t := &out[i]
		if t.x != x || t.y != y || t.wt.Sign() <= 0 {
			continue
		}
		take := new(big.Rat).Set(t.wt)
		if take.Cmp(remaining) > 0 {
			take.Set(remaining)
		}
		t.wt = new(big.Rat).Sub(t.wt, take)
		remaining.Sub(remaining, take)
		portions = append(portions, portion{amount: take, g: t.g})
	}
	if remaining.Sign() > 0 {
		return nil, nil, fmt.Errorf("panda: internal: step needs %s more of h(%v|%v)", remaining.RatString(), y, x)
	}
	// Drop zero-weight entries.
	kept := out[:0]
	for _, t := range out {
		if t.wt.Sign() > 0 {
			kept = append(kept, t)
		}
	}
	sortTerms(kept)
	return kept, portions, nil
}

// compile processes the remaining proof steps against the current terms
// and returns the gate holding the union of all target guards.
func (co *compiler) compile(terms []term, steps proofseq.Sequence, registry []guard, depth int) (int, error) {
	for si, st := range steps {
		if err := co.budget.CheckGates(co.ctx, len(co.c.Gates)); err != nil {
			return 0, err
		}
		rest := steps[si+1:]
		switch st.Kind {
		case proofseq.Submod:
			x := st.I.Intersect(st.J)
			var ports []portion
			var err error
			terms, ports, err = consume(terms, x, st.I, st.Weight)
			if err != nil {
				return 0, err
			}
			ny := st.I.Union(st.J)
			for _, p := range ports {
				// Invariant check: the guard still supports the lifted term.
				if !p.g.z.SubsetOf(st.J) || !ny.Minus(st.J).SubsetOf(p.g.w.Minus(p.g.z)) {
					return 0, fmt.Errorf("panda: submodularity breaks guard invariant")
				}
				terms = append(terms, term{x: st.J, y: ny, wt: p.amount, g: p.g})
			}
			sortTerms(terms)

		case proofseq.Mono:
			var ports []portion
			var err error
			terms, ports, err = consume(terms, 0, st.Y, st.Weight)
			if err != nil {
				return 0, err
			}
			for _, p := range ports {
				// Π_X(R_Y); PANDA-C sets N_X := N_Y (line 11, data
				// independence).
				xa := co.attrsOf(st.X)
				b := relcircuit.Card(p.g.n).WithDeg(xa, 1)
				gate := co.c.Project(p.g.gate, xa, b)
				ng := guard{gate: gate, z: 0, w: st.X, n: p.g.n}
				registry = append(registry, ng)
				terms = append(terms, term{x: 0, y: st.X, wt: p.amount, g: ng})
			}
			sortTerms(terms)

		case proofseq.Comp:
			var baseP, condP []portion
			var err error
			terms, baseP, err = consume(terms, 0, st.X, st.Weight)
			if err != nil {
				return 0, err
			}
			terms, condP, err = consume(terms, st.X, st.Y, st.Weight)
			if err != nil {
				return 0, err
			}
			pairs := zipPortions(baseP, condP)
			for _, pr := range pairs {
				gx, gw := pr.a.g, pr.b.g
				if !gw.z.SubsetOf(st.X) {
					return 0, fmt.Errorf("panda: composition guard condition %v ⊄ %v", gw.z, st.X)
				}
				prod := gx.n * gw.n
				if prod <= co.dapb*(1+1e-9) {
					// T_Y ← Π_Y(R_X ⋈ R_W), |T_Y| ≤ N_X · N_{W|Z}.
					jb := relcircuit.Card(prod)
					j := co.c.Join(gx.gate, gw.gate, jb)
					ya := co.attrsOf(st.Y)
					p := co.c.Project(j, ya, relcircuit.Card(prod).WithDeg(ya, 1))
					ng := guard{gate: p, z: 0, w: st.Y, n: prod}
					registry = append(registry, ng)
					terms = append(terms, term{x: 0, y: st.Y, wt: pr.amount, g: ng})
					continue
				}
				// Truncation path (lines 28-31): put the consumed
				// portions back and restart from a fresh inequality over
				// the accumulated constraints.
				terms = append(terms,
					term{x: 0, y: st.X, wt: pr.amount, g: gx},
					term{x: st.X, y: st.Y, wt: pr.amount, g: gw})
				sortTerms(terms)
				return co.restart(terms, registry, depth+1)
			}
			sortTerms(terms)

		case proofseq.Decomp:
			var ports []portion
			var err error
			terms, ports, err = consume(terms, 0, st.Y, st.Weight)
			if err != nil {
				return 0, err
			}
			if len(ports) != 1 {
				return 0, fmt.Errorf("panda: decomposition step split across %d guards (unsupported)", len(ports))
			}
			p := ports[0]
			branches := co.decompose(p.g, st.X)
			// Fork: each branch continues with the remaining steps.
			var outs []int
			for _, br := range branches {
				if err := co.budget.CheckGates(co.ctx, len(co.c.Gates)); err != nil {
					return 0, err
				}
				bt := cloneTerms(terms)
				bt = append(bt,
					term{x: 0, y: st.X, wt: new(big.Rat).Set(p.amount), g: br.proj},
					term{x: st.X, y: st.Y, wt: new(big.Rat).Set(p.amount), g: br.sub})
				sortTerms(bt)
				breg := append(append([]guard(nil), registry...), br.proj, br.sub)
				o, err := co.compile(bt, rest, breg, depth)
				if err != nil {
					return 0, err
				}
				outs = append(outs, o)
			}
			return co.unionAll(outs), nil
		}
	}
	// Sequence exhausted: union every guard over exactly the target.
	var outs []int
	seen := map[int]bool{}
	for _, t := range terms {
		if t.x.Empty() && t.y == co.target && !seen[t.g.gate] {
			seen[t.g.gate] = true
			outs = append(outs, t.g.gate)
		}
	}
	if len(outs) == 0 {
		return 0, fmt.Errorf("panda: internal: no target guard at end of proof sequence")
	}
	return co.unionAll(outs), nil
}

type portionPair struct {
	amount *big.Rat
	a, b   portion
}

// zipPortions aligns two portion lists of equal total weight into pairs
// of matching amounts.
func zipPortions(as, bs []portion) []portionPair {
	var out []portionPair
	i, j := 0, 0
	ra := new(big.Rat)
	rb := new(big.Rat)
	if len(as) > 0 {
		ra.Set(as[0].amount)
	}
	if len(bs) > 0 {
		rb.Set(bs[0].amount)
	}
	for i < len(as) && j < len(bs) {
		take := new(big.Rat).Set(ra)
		if rb.Cmp(take) < 0 {
			take.Set(rb)
		}
		out = append(out, portionPair{amount: take, a: as[i], b: bs[j]})
		ra.Sub(ra, take)
		rb.Sub(rb, take)
		if ra.Sign() == 0 {
			i++
			if i < len(as) {
				ra.Set(as[i].amount)
			}
		}
		if rb.Sign() == 0 {
			j++
			if j < len(bs) {
				rb.Set(bs[j].amount)
			}
		}
	}
	return out
}

// branch is one sub-relation produced by the decomposition circuit.
type branch struct {
	proj guard // Π_X(R_Y^{(j)}) guarding (∅, X, N_X^{(j)})
	sub  guard // R_Y^{(j)} guarding (X, Y, N_{Y|X}^{(j)})
}

// decompose emits the decomposition circuit of Algorithm 2 for guard g
// (a relation over Y) split at X, returning the 2k branches.
func (co *compiler) decompose(g guard, x query.VarSet) []branch {
	branches := relcircuit.Decompose(co.c, g.gate, co.attrsOf(x), g.n)
	out := make([]branch, len(branches))
	for i, br := range branches {
		out[i] = branch{
			proj: guard{gate: br.Proj, z: 0, w: x, n: br.NX},
			sub:  guard{gate: br.Sub, z: x, w: g.w, n: br.Deg},
		}
	}
	return out
}

// restart implements the truncation path: derive a fresh Shannon-flow
// inequality and proof sequence over the constraints guarded by every
// relation accumulated so far, and continue compiling from those.
func (co *compiler) restart(terms []term, registry []guard, depth int) (int, error) {
	co.restarts++
	if depth > maxRestartDepth {
		return 0, fmt.Errorf("panda: truncation restart depth exceeds %d; giving up", maxRestartDepth)
	}
	var dcs query.DCSet
	seenDC := map[string]bool{}
	cacheKey := ""
	addDC := func(g guard) {
		key := fmt.Sprintf("%d|%d|%g", g.z, g.w, g.n)
		if seenDC[key] {
			return
		}
		seenDC[key] = true
		nn := g.n
		if nn < 1 {
			nn = 1
		}
		dcs = append(dcs, query.DegreeConstraint{X: g.z, Y: g.w, N: nn})
	}
	for _, g := range registry {
		addDC(g)
	}
	keys := make([]string, 0, len(seenDC))
	for k := range seenDC {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cacheKey = fmt.Sprint(co.target, keys)

	entry, ok := co.restartCache[cacheKey]
	if !ok {
		lpCtx, lpSpan := obs.StartSpan(co.ctx, obs.StageLPSolve)
		res, err := bound.LogBoundRawCtx(lpCtx, co.q, dcs, co.target)
		lpSpan.SetError(err)
		lpSpan.End()
		if err != nil {
			return 0, fmt.Errorf("panda: truncation re-derivation: %w", err)
		}
		seq, delta, err := proofseq.BuildCtx(co.ctx, co.q, res)
		if err != nil {
			return 0, fmt.Errorf("panda: truncation proof sequence: %w", err)
		}
		entry = &restartEntry{res: res, seq: seq, delta: delta}
		co.restartCache[cacheKey] = entry
	}
	res, seq, delta := entry.res, entry.seq, entry.delta
	var fresh []term
	for p, w := range delta {
		g, ok := findGuardByDC(registry, p.X, p.Y, res, w)
		if !ok {
			return 0, fmt.Errorf("panda: truncation: no guard for h(%s|%s)",
				p.Y.Label(co.q.VarNames), p.X.Label(co.q.VarNames))
		}
		fresh = append(fresh, term{x: p.X, y: p.Y, wt: new(big.Rat).Set(w), g: g})
	}
	sortTerms(fresh)
	return co.compile(fresh, seq, registry, depth)
}

// findGuardByDC locates the registry guard matching a fresh dual term:
// the constraint (x, y) whose bound the dual actually priced. The dual's
// witness records the constraint values, so match on those; fall back to
// the tightest guard for (x, y).
func findGuardByDC(registry []guard, x, y query.VarSet, res *bound.Result, w *big.Rat) (guard, bool) {
	for _, d := range res.Witness.Delta {
		if d.DC.X == x && d.DC.Y == y && d.Weight.Cmp(w) == 0 {
			if g, ok := findGuard(registry, x, y, d.DC.N); ok {
				return g, true
			}
		}
	}
	return findGuard(registry, x, y, -1)
}

// unionAll folds a list of gates (all over the same attribute set) into a
// balanced union tree.
func (co *compiler) unionAll(gates []int) int {
	for len(gates) > 1 {
		var next []int
		for i := 0; i+1 < len(gates); i += 2 {
			a, b := gates[i], gates[i+1]
			card := co.c.Gates[a].Out.Card + co.c.Gates[b].Out.Card
			next = append(next, co.c.Union(a, b, relcircuit.Card(card)))
		}
		if len(gates)%2 == 1 {
			next = append(next, gates[len(gates)-1])
		}
		gates = next
	}
	return gates[0]
}

// cleanup removes false positives from the raw output by semijoining with
// every atom (Example 1's closing remark): join with each input whose
// attributes are contained in the target, plus, for partially overlapping
// atoms, with their projection onto the overlap.
func (co *compiler) cleanup(raw int) int {
	cur := raw
	card := co.c.Gates[raw].Out.Card
	if co.dapb < card {
		card = co.dapb
	}
	for i, a := range co.q.Atoms {
		f := a.VarSet()
		ov := f.Intersect(co.target)
		if ov.Empty() {
			continue
		}
		in := co.inputIDs[i]
		side := in
		if ov != f {
			side = co.c.Project(in, co.attrsOf(ov),
				relcircuit.Card(co.c.Gates[in].Out.Card).WithDeg(co.attrsOf(ov), 1))
		}
		cur = co.c.Join(cur, side, relcircuit.Card(card))
	}
	return cur
}
