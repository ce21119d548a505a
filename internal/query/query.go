// Package query defines conjunctive queries (CQs) as hypergraphs with free
// variables and degree constraints, exactly as in Section 3 of the paper,
// plus a small datalog-style parser, a reference RAM evaluator, and a
// catalog of canonical queries used across tests and benchmarks.
package query

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/relation"
)

// Atom is one relational atom R_F(A_F) of a conjunctive query. Vars holds
// variable indices in the positional order of the relation's columns.
type Atom struct {
	Name string
	Vars []int
}

// VarSet returns the set of variables of the atom (the hyperedge F).
func (a Atom) VarSet() VarSet { return SetOf(a.Vars...) }

// Query is a conjunctive query
//
//	Q(free) ← ∃(bound) ⋀_F R_F(A_F)
//
// over hypergraph ([n], E) where E is the multiset of atom variable sets.
type Query struct {
	VarNames []string // variable names; index is the variable id
	Free     VarSet   // free (output) variables
	Atoms    []Atom
}

// NVars returns the number of variables n.
func (q *Query) NVars() int { return len(q.VarNames) }

// AllVars returns the set [n].
func (q *Query) AllVars() VarSet { return FullSet(q.NVars()) }

// IsFull reports whether the query is a full CQ (all variables free).
func (q *Query) IsFull() bool { return q.Free == q.AllVars() }

// IsBoolean reports whether the query is Boolean (no free variables).
func (q *Query) IsBoolean() bool { return q.Free.Empty() }

// VarIndex returns the index of the named variable, or -1.
func (q *Query) VarIndex(name string) int {
	for i, n := range q.VarNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Edges returns the hyperedges (atom variable sets) in atom order.
func (q *Query) Edges() []VarSet {
	out := make([]VarSet, len(q.Atoms))
	for i, a := range q.Atoms {
		out[i] = a.VarSet()
	}
	return out
}

// EdgeFor returns the index of some atom whose variable set equals f, or
// -1 if none exists.
func (q *Query) EdgeFor(f VarSet) int {
	for i, a := range q.Atoms {
		if a.VarSet() == f {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: at least one atom, every variable
// occurs in some atom, free vars exist, and variable count is in range.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query: no atoms")
	}
	if q.NVars() == 0 || q.NVars() > MaxVars {
		return fmt.Errorf("query: %d variables out of range [1, %d]", q.NVars(), MaxVars)
	}
	covered := VarSet(0)
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if v < 0 || v >= q.NVars() {
				return fmt.Errorf("query: atom %s uses variable index %d out of range", a.Name, v)
			}
		}
		covered = covered.Union(a.VarSet())
	}
	if covered != q.AllVars() {
		return fmt.Errorf("query: variables %v not covered by any atom", q.AllVars().Minus(covered).Names(q.VarNames))
	}
	if !q.Free.SubsetOf(q.AllVars()) {
		return fmt.Errorf("query: free variables out of range")
	}
	return nil
}

// String renders the query in datalog style.
func (q *Query) String() string {
	s := "Q("
	for i, n := range q.Free.Names(q.VarNames) {
		if i > 0 {
			s += ","
		}
		s += n
	}
	s += ") :- "
	for i, a := range q.Atoms {
		if i > 0 {
			s += ", "
		}
		s += a.Name + "("
		for j, v := range a.Vars {
			if j > 0 {
				s += ","
			}
			s += q.VarNames[v]
		}
		s += ")"
	}
	return s
}

// DegreeConstraint is the triple (X, Y, N_{Y|X}) asserting
// deg(Y|X) ≤ N_{Y|X}, with X ⊆ Y and Y the variable set of some atom (the
// paper's guard restriction, Section 3.1). A cardinality constraint has
// X = ∅; a functional dependency has N = 1.
type DegreeConstraint struct {
	X, Y VarSet
	N    float64 // the bound N_{Y|X} ≥ 1, in tuples
}

// LogN returns n_{Y|X} = log₂ N_{Y|X}.
func (dc DegreeConstraint) LogN() float64 { return math.Log2(dc.N) }

// IsCardinality reports whether the constraint is a cardinality constraint
// (X = ∅).
func (dc DegreeConstraint) IsCardinality() bool { return dc.X.Empty() }

// Label renders the constraint using the query's variable names.
func (dc DegreeConstraint) Label(names []string) string {
	return fmt.Sprintf("deg(%s|%s)≤%g", dc.Y.Label(names), dc.X.Label(names), dc.N)
}

// DCSet is a set of degree constraints.
type DCSet []DegreeConstraint

// Validate checks every constraint against the query: X ⊆ Y, Y is an atom
// variable set, and N ≥ 1.
func (dcs DCSet) Validate(q *Query) error {
	for _, dc := range dcs {
		if !dc.Y.SubsetOf(q.AllVars()) {
			// Range-check before any Label call: formatting an
			// out-of-range set would index past VarNames.
			return fmt.Errorf("degree constraint: Y (bits %#x) uses variables outside the query's %d", uint64(dc.Y), q.NVars())
		}
		if !dc.X.SubsetOf(dc.Y) {
			return fmt.Errorf("degree constraint %s: X ⊄ Y", dc.Label(q.VarNames))
		}
		if q.EdgeFor(dc.Y) < 0 {
			return fmt.Errorf("degree constraint %s: Y is not an atom variable set", dc.Label(q.VarNames))
		}
		if dc.N < 1 {
			return fmt.Errorf("degree constraint %s: bound below 1", dc.Label(q.VarNames))
		}
	}
	return nil
}

// Cardinalities returns uniform cardinality constraints |R_F| ≤ n for
// every atom of q.
func Cardinalities(q *Query, n float64) DCSet {
	out := make(DCSet, 0, len(q.Atoms))
	seen := map[VarSet]bool{}
	for _, a := range q.Atoms {
		f := a.VarSet()
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, DegreeConstraint{X: 0, Y: f, N: n})
	}
	return out
}

// Database maps relation names to relations. One relation may guard
// several atoms (self-joins reuse the name).
type Database map[string]*relation.Relation

// TotalSize returns N = Σ_F |R_F| over the distinct relations.
func (db Database) TotalSize() int {
	n := 0
	for _, r := range db {
		n += r.Len()
	}
	return n
}

// AtomRelation returns the relation for atom a with its columns renamed to
// the atom's variable names (repeated variables are checked for equality
// and collapsed).
func AtomRelation(q *Query, db Database, a Atom) (*relation.Relation, error) {
	r, ok := db[a.Name]
	if !ok {
		return nil, fmt.Errorf("query: database has no relation %q", a.Name)
	}
	if r.Arity() != len(a.Vars) {
		return nil, fmt.Errorf("query: relation %q has arity %d, atom uses %d variables", a.Name, r.Arity(), len(a.Vars))
	}
	// Repeated variables (e.g. R(A, A)) select tuples with equal columns
	// and collapse to a single output column.
	out := relation.New(dedupNames(q, a)...)
	r.Each(func(t relation.Tuple) {
		row := make([]int64, 0, out.Arity())
		ok := true
		seenVar := map[int]int64{}
		for i, v := range a.Vars {
			if prev, dup := seenVar[v]; dup {
				if prev != t[i] {
					ok = false
					break
				}
				continue
			}
			seenVar[v] = t[i]
			row = append(row, t[i])
		}
		if ok {
			out.Insert(row...)
		}
	})
	return out, nil
}

func dedupNames(q *Query, a Atom) []string {
	var names []string
	seen := map[int]bool{}
	for _, v := range a.Vars {
		if seen[v] {
			continue
		}
		seen[v] = true
		names = append(names, q.VarNames[v])
	}
	return names
}

// EvaluateCtx computes Q(D) by the reference RAM strategy: join all
// atoms (smallest-first) and project onto the free variables. For
// Boolean queries the result is a zero-arity relation containing the
// empty tuple iff the query is true. Each join step polls ctx, charges
// the intermediate relation against any guard.Budget row cap, and
// reports to any faultinject.Injector's RAM-join site.
func EvaluateCtx(ctx context.Context, q *Query, db Database) (*relation.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	budget := guard.FromContext(ctx)
	inj := faultinject.FromContext(ctx)
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := AtomRelation(q, db, a)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	sort.SliceStable(rels, func(i, j int) bool { return rels[i].Len() < rels[j].Len() })
	acc := rels[0]
	for _, r := range rels[1:] {
		if err := guard.Poll(ctx); err != nil {
			return nil, err
		}
		if err := inj.Hit(faultinject.SiteRAMJoin); err != nil {
			return nil, fmt.Errorf("query: join step: %w", err)
		}
		acc = acc.NaturalJoin(r)
		if err := budget.CheckRows(acc.Len()); err != nil {
			return nil, fmt.Errorf("query: join step: %w", err)
		}
	}
	return acc.Project(q.Free.Names(q.VarNames)...), nil
}

// ValidateDB checks a database against a query (and optionally the DC
// set a circuit was compiled for) before evaluation: every atom's
// relation must exist with matching arity, and when dcs is non-nil the
// instance must conform — cardinality constraints bound |R_F| and
// degree constraints bound the observed degrees. Violations surface as
// guard.ErrInvalidInput with a description of the offending relation.
//
// It runs on every served request, so it reads the stored relations in
// place: only an atom with a repeated variable (R(A,A)), whose relation
// is the selected and collapsed one, is materialized by AtomRelation.
func ValidateDB(q *Query, dcs DCSet, db Database) error {
	if err := q.Validate(); err != nil {
		return guard.Invalidf("query: %v", err)
	}
	// rels[i] holds atom i's tuples with one column per distinct
	// variable, in order of first occurrence (atomColumn).
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, ok := db[a.Name]
		if !ok {
			return guard.Invalidf("query: database has no relation %q", a.Name)
		}
		if r.Arity() != len(a.Vars) {
			return guard.Invalidf("query: relation %q has arity %d, atom %s uses %d variables",
				a.Name, r.Arity(), a.Name, len(a.Vars))
		}
		if a.VarSet().Len() != len(a.Vars) {
			var err error
			if r, err = AtomRelation(q, db, a); err != nil {
				return guard.Invalidf("query: %v", err)
			}
		}
		rels[i] = r
	}
	var rows []relation.Tuple // degreeAt's scratch, shared by every check
	for _, dc := range dcs {
		for i, a := range q.Atoms {
			if a.VarSet() != dc.Y {
				continue
			}
			r := rels[i]
			if dc.IsCardinality() {
				if float64(r.Len()) > dc.N+1e-9 {
					return guard.Invalidf("query: relation %q has %d tuples, exceeding compiled cardinality bound %g",
						a.Name, r.Len(), dc.N)
				}
				continue
			}
			var cols [MaxVars]int
			on := cols[:0]
			for x := dc.X; x != 0; {
				v := bits.TrailingZeros32(uint32(x))
				on = append(on, atomColumn(a, v))
				x = x.Remove(v)
			}
			var deg int
			if deg, rows = degreeAt(r, on, rows); float64(deg) > dc.N+1e-9 {
				return guard.Invalidf("query: relation %q has degree %g on %v, exceeding compiled degree bound %g",
					a.Name, float64(deg), dc.X.Names(q.VarNames), dc.N)
			}
		}
	}
	return nil
}

// atomColumn returns the column of variable v among atom a's distinct
// variables in order of first occurrence — the schema AtomRelation
// gives a collapsed atom, and plain position when nothing repeats. v
// must occur in a.
func atomColumn(a Atom, v int) int {
	col, seen := 0, VarSet(0)
	for _, w := range a.Vars {
		if w == v {
			break
		}
		if !seen.Has(w) {
			seen = seen.Add(w)
			col++
		}
	}
	return col
}

// degreeAt returns max_t |σ_{on=t}(r)|, the degree of r on the columns
// on (non-empty), as relation.Degree does by attribute name. It sorts
// tuple headers collected into rows — the stored tuples are neither
// copied nor touched — and returns the longest run, along with rows for
// the next call to reuse.
func degreeAt(r *relation.Relation, on []int, rows []relation.Tuple) (int, []relation.Tuple) {
	rows = rows[:0]
	r.Each(func(t relation.Tuple) { rows = append(rows, t) })
	byOn := func(s, t relation.Tuple) int {
		for _, c := range on {
			if d := cmp.Compare(s[c], t[c]); d != 0 {
				return d
			}
		}
		return 0
	}
	slices.SortFunc(rows, byOn)
	deg, run := 0, 0
	for i, t := range rows {
		if i > 0 && byOn(rows[i-1], t) == 0 {
			run++
		} else {
			run = 1
		}
		if run > deg {
			deg = run
		}
	}
	return deg, rows
}

// DeriveDC measures the database and returns the tightest degree
// constraints of the requested shapes: for every atom, its cardinality
// constraint, and for every (X ⊂ Y) pair with |X| ≥ 1, the observed
// degree bound. This is how "DC conforming" instances are produced in
// tests.
func DeriveDC(q *Query, db Database) (DCSet, error) {
	// A constraint is identified by (X, Y) alone, so it binds every atom
	// whose variable set is Y. When several atoms share a variable set
	// (over different relations) the derived bound must be the max over
	// all of them or the weakest relation would violate it.
	type key struct{ x, y VarSet }
	bounds := map[key]float64{}
	var order []key
	for _, a := range q.Atoms {
		y := a.VarSet()
		r, err := AtomRelation(q, db, a)
		if err != nil {
			return nil, err
		}
		y.Subsets(func(x VarSet) {
			if x == y {
				return
			}
			d := float64(r.Degree(x.Names(q.VarNames)...))
			if d < 1 {
				d = 1
			}
			k := key{x, y}
			old, ok := bounds[k]
			if !ok {
				order = append(order, k)
			}
			if !ok || d > old {
				bounds[k] = d
			}
		})
	}
	out := make(DCSet, 0, len(order))
	for _, k := range order {
		out = append(out, DegreeConstraint{X: k.x, Y: k.y, N: bounds[k]})
	}
	return out, nil
}
