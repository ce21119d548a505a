package query

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/relation"
)

func TestVarSetBasics(t *testing.T) {
	s := SetOf(0, 2, 5)
	if !s.Has(0) || s.Has(1) || !s.Has(2) || !s.Has(5) {
		t.Fatalf("membership wrong for %b", s)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Vars(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("Vars = %v", got)
	}
	if s.Remove(2) != SetOf(0, 5) {
		t.Fatal("Remove wrong")
	}
	if !SetOf(0, 2).SubsetOf(s) || SetOf(1).SubsetOf(s) {
		t.Fatal("SubsetOf wrong")
	}
	if s.Union(SetOf(1)) != SetOf(0, 1, 2, 5) {
		t.Fatal("Union wrong")
	}
	if s.Intersect(SetOf(2, 3)) != SetOf(2) {
		t.Fatal("Intersect wrong")
	}
	if s.Minus(SetOf(0)) != SetOf(2, 5) {
		t.Fatal("Minus wrong")
	}
	if FullSet(3) != SetOf(0, 1, 2) {
		t.Fatal("FullSet wrong")
	}
}

func TestVarSetSubsets(t *testing.T) {
	var got []VarSet
	SetOf(0, 2).Subsets(func(s VarSet) { got = append(got, s) })
	want := []VarSet{0, SetOf(0), SetOf(2), SetOf(0, 2)}
	if len(got) != len(want) {
		t.Fatalf("Subsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subsets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVarSetLabel(t *testing.T) {
	names := []string{"A", "B", "C"}
	if l := SetOf(0, 2).Label(names); l != "AC" {
		t.Fatalf("Label = %q", l)
	}
	if l := VarSet(0).Label(names); l != "∅" {
		t.Fatalf("empty Label = %q", l)
	}
}

func TestParseTriangle(t *testing.T) {
	q := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).")
	if q.NVars() != 3 || !q.IsFull() || q.IsBoolean() {
		t.Fatalf("triangle parsed wrong: %v", q)
	}
	if len(q.Atoms) != 3 {
		t.Fatalf("atoms = %d", len(q.Atoms))
	}
	if q.Atoms[1].Name != "S" || q.Atoms[1].VarSet() != SetOf(1, 2) {
		t.Fatalf("atom S parsed wrong: %+v", q.Atoms[1])
	}
	if q.String() != "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)" {
		t.Fatalf("String = %q", q.String())
	}
}

func TestParseBooleanAndProjected(t *testing.T) {
	b := MustParse("Q() :- R(A,B), S(B,C)")
	if !b.IsBoolean() || b.IsFull() {
		t.Fatal("Boolean query misparsed")
	}
	p := MustParse("Q(A,C) :- R(A,B), S(B,C)")
	names := p.Free.Names(p.VarNames)
	if len(names) != 2 || names[0] != "A" || names[1] != "C" {
		t.Fatalf("free vars = %v", names)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(A)",                 // no body
		"Q(A) :- ",             // empty body -> no atoms
		"Q(A) :- R()",          // atom without variables
		"Q(A) :- R(A,)",        // trailing comma variable
		"Q(A) :- 1R(A)",        // bad relation name
		"Q(A) :- R(A), S(B C)", // bad separator
		"Q(Z) :- R(A,B)",       // free var not covered... covered check
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestValidateUncovered(t *testing.T) {
	q := &Query{VarNames: []string{"A", "B"}, Free: SetOf(0), Atoms: []Atom{{Name: "R", Vars: []int{0}}}}
	if err := q.Validate(); err == nil {
		t.Fatal("expected uncovered-variable error")
	}
}

func TestEvaluateTriangle(t *testing.T) {
	q := Triangle()
	db := Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}, relation.Tuple{1, 3}, relation.Tuple{4, 5}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}, relation.Tuple{3, 4}),
		"T": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 3}, relation.Tuple{4, 6}),
	}
	out, err := EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromTuples([]string{"A", "B", "C"}, relation.Tuple{1, 2, 3})
	if !out.Equal(want) {
		t.Fatalf("Q(D) = %v, want %v", out, want)
	}
}

func TestEvaluateBoolean(t *testing.T) {
	q := BooleanTriangle()
	db := Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}),
		"T": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 3}),
	}
	out, err := EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("true Boolean query returned %d tuples", out.Len())
	}
	db["T"] = relation.FromTuples([]string{"x", "y"}, relation.Tuple{9, 9})
	out, err = EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("false Boolean query returned %d tuples", out.Len())
	}
}

func TestEvaluateSelfJoinRepeatedVar(t *testing.T) {
	// Q(A) :- R(A,A): the diagonal.
	q := MustParse("Q(A) :- R(A,A)")
	db := Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 1}, relation.Tuple{1, 2}, relation.Tuple{3, 3}),
	}
	out, err := EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromTuples([]string{"A"}, relation.Tuple{1}, relation.Tuple{3})
	if !out.Equal(want) {
		t.Fatalf("diagonal = %v, want %v", out, want)
	}
}

func TestEvaluateMissingRelation(t *testing.T) {
	if _, err := EvaluateCtx(context.Background(), Triangle(), Database{}); err == nil {
		t.Fatal("expected missing-relation error")
	}
}

func TestCardinalitiesDedup(t *testing.T) {
	// Two atoms over the same edge produce one constraint.
	q := MustParse("Q(A,B) :- R(A,B), R2(A,B)")
	dcs := Cardinalities(q, 100)
	if len(dcs) != 1 {
		t.Fatalf("constraints = %v", dcs)
	}
	if err := dcs.Validate(q); err != nil {
		t.Fatal(err)
	}
}

func TestDCValidate(t *testing.T) {
	q := Triangle()
	good := DCSet{{X: SetOf(0), Y: SetOf(0, 1), N: 5}}
	if err := good.Validate(q); err != nil {
		t.Fatal(err)
	}
	bad := DCSet{{X: SetOf(2), Y: SetOf(0, 1), N: 5}}
	if err := bad.Validate(q); err == nil {
		t.Fatal("expected X ⊄ Y error")
	}
	bad2 := DCSet{{X: 0, Y: SetOf(0, 1, 2), N: 5}}
	if err := bad2.Validate(q); err == nil {
		t.Fatal("expected non-edge error")
	}
	bad3 := DCSet{{X: 0, Y: SetOf(0, 1), N: 0.5}}
	if err := bad3.Validate(q); err == nil {
		t.Fatal("expected bound-below-1 error")
	}
}

func TestDeriveDCConforms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := Triangle()
	db := Database{}
	for _, name := range []string{"R", "S", "T"} {
		r := relation.New("x", "y")
		for i := 0; i < 30; i++ {
			r.Insert(int64(rng.Intn(8)), int64(rng.Intn(8)))
		}
		db[name] = r
	}
	dcs, err := DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := dcs.Validate(q); err != nil {
		t.Fatal(err)
	}
	// Each derived constraint must hold on the instance it was derived from.
	for _, dc := range dcs {
		for _, a := range q.Atoms {
			if a.VarSet() != dc.Y {
				continue
			}
			r, err := AtomRelation(q, db, a)
			if err != nil {
				t.Fatal(err)
			}
			if d := r.Degree(dc.X.Names(q.VarNames)...); float64(d) > dc.N {
				t.Fatalf("constraint %s violated: deg=%d", dc.Label(q.VarNames), d)
			}
		}
	}
}

func TestCatalogValidates(t *testing.T) {
	for _, e := range Catalog() {
		if err := e.Query.Validate(); err != nil {
			t.Errorf("catalog query %s invalid: %v", e.Name, err)
		}
	}
}

func TestEdgeFor(t *testing.T) {
	q := Triangle()
	if q.EdgeFor(SetOf(0, 1)) != 0 || q.EdgeFor(SetOf(1, 2)) != 1 || q.EdgeFor(SetOf(0, 2)) != 2 {
		t.Fatal("EdgeFor wrong")
	}
	if q.EdgeFor(SetOf(0, 1, 2)) != -1 {
		t.Fatal("EdgeFor should miss")
	}
}
