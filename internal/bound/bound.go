// Package bound computes the degree-aware polymatroid bound of Section
// 3.2: LOGDAPB(Q) = max { h([n]) : h ∈ Γ_n ∩ HDC }, where Γ_n is the
// polymatroid cone and HDC the degree-constraint polytope. The bound is
// computed by an exact LP over the elemental polymatroid inequalities,
// and the LP dual is returned as a Shannon-flow witness (Theorem 1): a
// non-negative vector δ over the degree constraints with
// ⟨δ, h⟩ ≥ h(target) for every polymatroid h and Σ δ·n_{Y|X} = LOGDAPB.
package bound

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"circuitql/internal/lp"
	"circuitql/internal/query"
)

// DeltaTerm is one non-zero coordinate of the Shannon-flow vector δ: the
// degree constraint it multiplies and its weight.
type DeltaTerm struct {
	DC     query.DegreeConstraint
	Weight *big.Rat
}

// SubmodTerm is the multiplier of one elemental submodularity inequality
// h(S∪i) + h(S∪j) ≥ h(S∪i∪j) + h(S) in the dual witness.
type SubmodTerm struct {
	S      query.VarSet // base set, excludes I and J
	I, J   int          // the two distinguished variables, I < J
	Weight *big.Rat     // ≥ 0
}

// MonoTerm is the multiplier of the elemental monotonicity inequality
// h([n]) ≥ h([n] \ {V}).
type MonoTerm struct {
	V      int
	Weight *big.Rat // ≥ 0
}

// SlackTerm is the multiplier of a variable's non-negativity h(S) ≥ 0 in
// the witness (appears when dual feasibility is strict at h(S)).
type SlackTerm struct {
	S      query.VarSet
	Weight *big.Rat // ≥ 0
}

// Witness is the dual certificate of the bound: for every polymatroid h,
//
//	Σ Delta · h(Y|X)  ≥  h(target) + Σ Submod·elem(h) + Σ Mono·mono(h) + Σ Slack·h(S)
//
// with all multipliers non-negative, hence ⟨δ, h⟩ ≥ h(target).
type Witness struct {
	Delta  []DeltaTerm
	Submod []SubmodTerm
	Mono   []MonoTerm
	Slack  []SlackTerm
}

// Result is the outcome of a bound computation.
type Result struct {
	Target   query.VarSet
	LogValue *big.Rat // LOGDAPB in bits (log₂ of the tuple-count bound)
	Witness  Witness
}

// Value returns the bound 2^LogValue as a float64 tuple count.
func (r *Result) Value() float64 {
	f, _ := r.LogValue.Float64()
	return math.Exp2(f)
}

// Log2Rat returns an exact rational equal to the float64 value of log₂ n.
// For n a power of two the result is the exact integer logarithm.
func Log2Rat(n float64) *big.Rat {
	if n <= 0 {
		panic("bound: log of non-positive value")
	}
	if n == 1 {
		return new(big.Rat)
	}
	// Exact for powers of two.
	if l := math.Log2(n); l == math.Trunc(l) && math.Exp2(l) == n {
		return new(big.Rat).SetInt64(int64(l))
	}
	r, ok := new(big.Rat).SetString(fmt.Sprintf("%.12f", math.Log2(n)))
	if !ok {
		panic("bound: cannot represent log2")
	}
	return r
}

// LogDAPBCtx computes the degree-aware polymatroid bound of the full
// variable set: max h([n]) over Γ_n ∩ HDC. The underlying exact LP polls
// ctx and charges pivots against any attached guard.Budget.
func LogDAPBCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*Result, error) {
	return LogBoundCtx(ctx, q, dcs, q.AllVars())
}

// LogBoundCtx computes max h(target) over Γ_n ∩ HDC for an arbitrary
// non-empty target ⊆ [n] (used per GHD bag by the width computations).
func LogBoundCtx(ctx context.Context, q *query.Query, dcs query.DCSet, target query.VarSet) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := dcs.Validate(q); err != nil {
		return nil, err
	}
	return LogBoundRawCtx(ctx, q, dcs, target)
}

// The shared, read-only values of the polymatroid LP's rows.
var zero, one, minusOne = new(big.Rat), lp.Rat(1, 1), lp.Rat(-1, 1)

// eachSubmod enumerates the elemental submodularities
// h(S∪i) + h(S∪j) ≥ h(S∪ij) + h(S), i < j, S ⊆ [n]∖{i,j}.
func eachSubmod(q *query.Query, fn func(s query.VarSet, i, j int)) {
	for i := 0; i < q.NVars(); i++ {
		for j := i + 1; j < q.NVars(); j++ {
			q.AllVars().Remove(i).Remove(j).Subsets(func(s query.VarSet) { fn(s, i, j) })
		}
	}
}

// PolymatroidLP returns the maximization LP over Γ_n ∩ HDC with a zero
// objective: variable int(S)-1 is h(S) for non-empty S ⊆ [n] (h(∅) = 0
// is implicit), followed by extra variables of the caller's. Row k is
// dcs[k], h(Y) - h(X) ≤ log N; then one ≥ 0 row per elemental
// submodularity, in eachSubmod's order; then h([n]) - h([n]∖{v}) ≥ 0 for
// v = 0..n-1. The dual is read back by that order.
func PolymatroidLP(q *query.Query, dcs query.DCSet, extra int) *lp.Problem {
	p := lp.NewProblem(int(q.AllVars())+extra, lp.Maximize)
	terms := make([]lp.Term, 0, 4)
	add := func(s query.VarSet, c *big.Rat) {
		if !s.Empty() {
			terms = append(terms, lp.Term{Var: int(s) - 1, Coef: c})
		}
	}
	for _, dc := range dcs {
		terms = append(terms[:0], lp.Term{Var: int(dc.Y) - 1, Coef: one})
		if dc.X == dc.Y {
			// Vacuous either way; this is the row X = Y has always
			// produced, kept because the pivot sequence is pinned.
			terms[0].Coef = minusOne
		} else {
			add(dc.X, minusOne)
		}
		p.AddLE(terms, Log2Rat(dc.N))
	}
	eachSubmod(q, func(s query.VarSet, i, j int) {
		terms = terms[:0]
		add(s.Add(i), one)
		add(s.Add(j), one)
		add(s.Add(i).Add(j), minusOne)
		add(s, minusOne)
		p.AddGE(terms, zero)
	})
	for v := 0; v < q.NVars(); v++ {
		terms = terms[:0]
		add(q.AllVars(), one)
		add(q.AllVars().Remove(v), minusOne)
		p.AddGE(terms, zero)
	}
	return p
}

// LogBoundRawCtx is LogBoundCtx without the requirement that every
// constraint's Y set be a hyperedge of the query. PANDA-C's truncation
// path re-derives bounds over the degree constraints of *derived*
// relations (projections and decomposition sub-relations), whose
// attribute sets are arbitrary subsets of [n]; this entry point serves
// that case. Constraints must still satisfy X ⊆ Y and N ≥ 1.
func LogBoundRawCtx(ctx context.Context, q *query.Query, dcs query.DCSet, target query.VarSet) (*Result, error) {
	for _, dc := range dcs {
		if !dc.X.SubsetOf(dc.Y) || dc.N < 1 {
			return nil, fmt.Errorf("bound: malformed constraint %s", dc.Label(q.VarNames))
		}
	}
	if target.Empty() || !target.SubsetOf(q.AllVars()) {
		return nil, fmt.Errorf("bound: invalid target %v", target)
	}
	p := PolymatroidLP(q, dcs, 0)
	p.SetObjectiveInt(int(target)-1, 1)
	sol, err := p.SolveCtx(ctx)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Unbounded:
		return nil, fmt.Errorf("bound: LOGDAPB unbounded: degree constraints do not bound h(%s)", target.Label(q.VarNames))
	default:
		return nil, fmt.Errorf("bound: LP %v", sol.Status)
	}

	// Read the witness off the dual, row by row in PolymatroidLP's order.
	// GE-row duals are ≤ 0 for Maximize; the witness multiplier is -y.
	res := &Result{Target: target, LogValue: sol.Objective}
	for k, dc := range dcs {
		if w := sol.Dual[k]; w.Sign() > 0 {
			res.Witness.Delta = append(res.Witness.Delta, DeltaTerm{DC: dc, Weight: w})
		}
	}
	row := len(dcs)
	eachSubmod(q, func(s query.VarSet, i, j int) {
		if w := sol.Dual[row]; w.Sign() < 0 {
			res.Witness.Submod = append(res.Witness.Submod, SubmodTerm{S: s, I: i, J: j, Weight: w.Neg(w)})
		}
		row++
	})
	for v := 0; v < q.NVars(); v++ {
		if w := sol.Dual[row+v]; w.Sign() < 0 {
			res.Witness.Mono = append(res.Witness.Mono, MonoTerm{V: v, Weight: w.Neg(w)})
		}
	}
	res.fillSlack(q, p.NumVars())
	return res, nil
}

// fillSlack derives the h(S) ≥ 0 multipliers from the identity
//
//	Σδ·h(Y|X) - h(target) - Σμ_s·elem_s(h) - Σμ_m·mono_m(h) = Σ slack_S·h(S),
//
// which must have non-negative coefficients by LP dual feasibility.
func (r *Result) fillSlack(q *query.Query, nvars int) {
	coef := make([]*big.Rat, nvars+1) // index by int(S)
	for i := range coef {
		coef[i] = new(big.Rat)
	}
	add := func(s query.VarSet, w *big.Rat) {
		if s.Empty() {
			return
		}
		coef[int(s)].Add(coef[int(s)], w)
	}
	sub := func(s query.VarSet, w *big.Rat) {
		if s.Empty() {
			return
		}
		coef[int(s)].Sub(coef[int(s)], w)
	}
	for _, d := range r.Witness.Delta {
		add(d.DC.Y, d.Weight)
		sub(d.DC.X, d.Weight)
	}
	sub(r.Target, big.NewRat(1, 1))
	for _, s := range r.Witness.Submod {
		sub(s.S.Add(s.I), s.Weight)
		sub(s.S.Add(s.J), s.Weight)
		add(s.S.Add(s.I).Add(s.J), s.Weight)
		add(s.S, s.Weight)
	}
	full := q.AllVars()
	for _, m := range r.Witness.Mono {
		sub(full, m.Weight)
		add(full.Remove(m.V), m.Weight)
	}
	for s := 1; s <= nvars; s++ {
		if coef[s].Sign() > 0 {
			r.Witness.Slack = append(r.Witness.Slack, SlackTerm{S: query.VarSet(s), Weight: new(big.Rat).Set(coef[s])})
		}
	}
}

// CheckWitness verifies the witness identity exactly: the functional
// Σδ·h(Y|X) - h(target) must equal the non-negative combination of
// elemental inequalities and variable non-negativities recorded in the
// witness, coefficient by coefficient. It also verifies
// Σ δ·n_{Y|X} = LOGDAPB (Theorem 1's tightness condition).
func (r *Result) CheckWitness(q *query.Query) error {
	n := q.NVars()
	nvars := (1 << uint(n)) - 1
	coef := make([]*big.Rat, nvars+1)
	for i := range coef {
		coef[i] = new(big.Rat)
	}
	add := func(s query.VarSet, w *big.Rat) {
		if !s.Empty() {
			coef[int(s)].Add(coef[int(s)], w)
		}
	}
	neg := func(w *big.Rat) *big.Rat { return new(big.Rat).Neg(w) }

	for _, d := range r.Witness.Delta {
		if d.Weight.Sign() < 0 {
			return fmt.Errorf("bound: negative δ weight")
		}
		add(d.DC.Y, d.Weight)
		add(d.DC.X, neg(d.Weight))
	}
	add(r.Target, big.NewRat(-1, 1))
	for _, s := range r.Witness.Submod {
		if s.Weight.Sign() < 0 {
			return fmt.Errorf("bound: negative submodularity weight")
		}
		add(s.S.Add(s.I), neg(s.Weight))
		add(s.S.Add(s.J), neg(s.Weight))
		add(s.S.Add(s.I).Add(s.J), s.Weight)
		add(s.S, s.Weight)
	}
	full := q.AllVars()
	for _, m := range r.Witness.Mono {
		if m.Weight.Sign() < 0 {
			return fmt.Errorf("bound: negative monotonicity weight")
		}
		add(full, neg(m.Weight))
		add(full.Remove(m.V), m.Weight)
	}
	for _, sl := range r.Witness.Slack {
		if sl.Weight.Sign() < 0 {
			return fmt.Errorf("bound: negative slack weight")
		}
		add(sl.S, neg(sl.Weight))
	}
	for s := 1; s <= nvars; s++ {
		if coef[s].Sign() != 0 {
			return fmt.Errorf("bound: witness identity fails at h(%s): residual %v",
				query.VarSet(s).Label(q.VarNames), coef[s])
		}
	}

	total := new(big.Rat)
	for _, d := range r.Witness.Delta {
		total.Add(total, new(big.Rat).Mul(d.Weight, Log2Rat(d.DC.N)))
	}
	if total.Cmp(r.LogValue) != 0 {
		return fmt.Errorf("bound: Σδ·n = %v ≠ LOGDAPB = %v", total, r.LogValue)
	}
	return nil
}

// FractionalEdgeCoverNumber returns ρ*(Q): the minimum total weight of a
// fractional edge cover of the query hypergraph. Under uniform cardinality
// constraints N, the AGM (and polymatroid) bound is N^ρ*. The LP polls
// ctx.
func FractionalEdgeCoverNumber(ctx context.Context, q *query.Query) (*big.Rat, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	edges := q.Edges()
	p := lp.NewProblem(len(edges), lp.Minimize)
	for i := range edges {
		p.SetObjectiveInt(i, 1)
	}
	for v := 0; v < q.NVars(); v++ {
		var terms []lp.Term
		for i, e := range edges {
			if e.Has(v) {
				terms = append(terms, lp.Term{Var: i, Coef: one})
			}
		}
		p.AddGE(terms, one)
	}
	sol, err := p.SolveCtx(ctx)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("bound: edge cover LP %v", sol.Status)
	}
	return sol.Objective, nil
}
