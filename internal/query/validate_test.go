package query

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"circuitql/internal/guard"
	"circuitql/internal/relation"
)

// validateDBRef is ValidateDB as it was before it stopped copying: it
// materializes AtomRelation for every atom and measures degrees through
// relation.Degree by attribute name. Kept as the reference ValidateDB
// is compared against, message for message.
func validateDBRef(q *Query, dcs DCSet, db Database) error {
	if err := q.Validate(); err != nil {
		return guard.Invalidf("query: %v", err)
	}
	atomRels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, ok := db[a.Name]
		if !ok {
			return guard.Invalidf("query: database has no relation %q", a.Name)
		}
		if r.Arity() != len(a.Vars) {
			return guard.Invalidf("query: relation %q has arity %d, atom %s uses %d variables",
				a.Name, r.Arity(), a.Name, len(a.Vars))
		}
		ar, err := AtomRelation(q, db, a)
		if err != nil {
			return guard.Invalidf("query: %v", err)
		}
		atomRels[i] = ar
	}
	for _, dc := range dcs {
		for i, a := range q.Atoms {
			if a.VarSet() != dc.Y {
				continue
			}
			r := atomRels[i]
			if dc.IsCardinality() {
				if float64(r.Len()) > dc.N+1e-9 {
					return guard.Invalidf("query: relation %q has %d tuples, exceeding compiled cardinality bound %g",
						a.Name, r.Len(), dc.N)
				}
				continue
			}
			on := dc.X.Names(q.VarNames)
			if got := float64(r.Degree(on...)); got > dc.N+1e-9 {
				return guard.Invalidf("query: relation %q has degree %g on %v, exceeding compiled degree bound %g",
					a.Name, got, on, dc.N)
			}
		}
	}
	return nil
}

// randomDB fills every relation of q with up to n distinct tuples over a
// domain small enough that degrees above 1 occur.
func randomDB(q *Query, rng *rand.Rand, n int) Database {
	db := Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Name]; ok {
			continue
		}
		attrs := make([]string, len(a.Vars))
		for j := range attrs {
			attrs[j] = "c" + strconv.Itoa(j)
		}
		r := relation.New(attrs...)
		row := make([]int64, len(attrs))
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = int64(rng.Intn(5))
			}
			r.Insert(row...)
		}
		db[a.Name] = r
	}
	return db
}

// TestValidateDBMatchesReference: on the catalog queries, self-joins
// and atoms with repeated variables, over random databases that conform
// to the constraints and random ones that violate them (a constraint
// tightened below what the instance has, constraints measured on
// another instance, a missing relation, a wrong arity), ValidateDB
// accepts exactly what the copying reference accepts and rejects with
// the same message.
func TestValidateDBMatchesReference(t *testing.T) {
	queries := Catalog()
	for _, src := range []string{
		"Q(A) :- R(A,A)",
		"Q(A,B) :- R(A,B,A), S(B,A)",
		"Q(A,B,C) :- R(B,A,B,C), S(A,C)",
		"Q(A,B,C) :- E(A,B), E(B,C)",
		"Q(A,B) :- R(A,B), S(A,B)",
	} {
		queries = append(queries, CatalogEntry{Name: src, Query: MustParse(src)})
	}
	rng := rand.New(rand.NewSource(22))
	accepted, rejected := 0, 0
	check := func(name string, q *Query, dcs DCSet, db Database) {
		t.Helper()
		got, want := ValidateDB(q, dcs, db), validateDBRef(q, dcs, db)
		switch {
		case want == nil && got == nil:
			accepted++
		case want == nil || got == nil || got.Error() != want.Error():
			t.Fatalf("%s: ValidateDB = %v, reference = %v", name, got, want)
		case !errors.Is(got, guard.ErrInvalidInput):
			t.Fatalf("%s: %v is not ErrInvalidInput", name, got)
		default:
			rejected++
		}
	}
	for _, e := range queries {
		q := e.Query
		for round := 0; round < 40; round++ {
			db := randomDB(q, rng, 1+rng.Intn(12))
			dcs, err := DeriveDC(q, db)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			check(e.Name, q, dcs, db)
			check(e.Name, q, nil, db)

			// One constraint tightened by a random amount: violated
			// whenever its bound was above 1.
			tight := append(DCSet(nil), dcs...)
			k := rng.Intn(len(tight))
			tight[k].N = math.Max(1, tight[k].N-float64(1+rng.Intn(2)))
			check(e.Name, q, tight, db)

			// Constraints measured on another instance.
			other, err := DeriveDC(q, randomDB(q, rng, 1+rng.Intn(12)))
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			check(e.Name, q, other, db)

			// A relation missing, then one of the wrong arity.
			victim := q.Atoms[rng.Intn(len(q.Atoms))].Name
			broken := Database{}
			for name, r := range db {
				if name != victim {
					broken[name] = r
				}
			}
			check(e.Name, q, dcs, broken)
			broken[victim] = relation.New("only")
			if db[victim].Arity() == 1 {
				broken[victim] = relation.New("one", "two")
			}
			check(e.Name, q, dcs, broken)
		}
	}
	t.Logf("%d accepted, %d rejected", accepted, rejected)
	if accepted < 100 || rejected < 100 {
		t.Fatalf("vacuous comparison: %d accepted, %d rejected", accepted, rejected)
	}
}

var validateSink error

// BenchmarkValidateDB is the per-request database check on the
// benchmark's two hot shapes (triangle at 16 tuples, R(A,B),S(A,B) at
// 4), against the copying reference.
func BenchmarkValidateDB(b *testing.B) {
	for _, c := range []struct {
		name string
		src  string
		n    int
	}{
		{"triangle16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
		{"pair4", "Q(A,B) :- R(A,B), S(A,B)", 4},
	} {
		q := MustParse(c.src)
		db := randomDB(q, rand.New(rand.NewSource(1)), c.n)
		dcs, err := DeriveDC(q, db)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []struct {
			name string
			fn   func(*Query, DCSet, Database) error
		}{{"inplace", ValidateDB}, {"reference", validateDBRef}} {
			b.Run(c.name+"/"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					validateSink = f.fn(q, dcs, db)
				}
			})
		}
	}
}
