package semiring

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

func annotatedRandom(rng *rand.Rand, n, dom, maxAnn int) *relation.Relation {
	base := relation.New("x", "y")
	for base.Len() < n {
		base.Insert(int64(rng.Intn(dom)), int64(rng.Intn(dom)))
	}
	return Annotate(base, func(relation.Tuple) int64 { return int64(1 + rng.Intn(maxAnn)) })
}

func TestAnnotate(t *testing.T) {
	r := relation.FromTuples([]string{"x"}, relation.Tuple{1}, relation.Tuple{2})
	a := Annotate(r, func(t relation.Tuple) int64 { return t[0] * 10 })
	if !a.Has(1, 10) || !a.Has(2, 20) {
		t.Fatalf("Annotate = %v", a)
	}
}

// TestSumProductCountsWitnesses: with all-1 annotations, the sum-product
// result annotates each output tuple with its number of join witnesses.
func TestSumProductCountsWitnesses(t *testing.T) {
	q := query.Path2Projected() // Q(A,C) :- R(A,B), S(B,C)
	r := Annotate(relation.FromTuples([]string{"x", "y"},
		relation.Tuple{1, 10}, relation.Tuple{1, 20}), func(relation.Tuple) int64 { return 1 })
	s := Annotate(relation.FromTuples([]string{"x", "y"},
		relation.Tuple{10, 5}, relation.Tuple{20, 5}, relation.Tuple{20, 6}),
		func(relation.Tuple) int64 { return 1 })
	out, err := EvaluateRAM(SumProduct(), q, map[string]*relation.Relation{"R": r, "S": s})
	if err != nil {
		t.Fatal(err)
	}
	// (1,5) via B=10 and B=20 -> 2 witnesses; (1,6) via B=20 -> 1.
	want := relation.FromTuples([]string{"A", "C", AnnAttr},
		relation.Tuple{1, 5, 2}, relation.Tuple{1, 6, 1})
	if !out.Equal(want) {
		t.Fatalf("sum-product = %v, want %v", out, want)
	}
}

// TestMinPlusShortestPath: min-plus over a 2-path computes 2-hop
// shortest-path distances.
func TestMinPlusShortestPath(t *testing.T) {
	q := query.Path2Projected()
	edges := relation.New("x", "y", AnnAttr)
	edges.Insert(1, 2, 3) // 1->2 cost 3
	edges.Insert(1, 3, 1) // 1->3 cost 1
	edges.Insert(2, 4, 1) // 2->4 cost 1
	edges.Insert(3, 4, 5) // 3->4 cost 5
	out, err := EvaluateRAM(MinPlus(), q, map[string]*relation.Relation{"R": edges, "S": edges})
	if err != nil {
		t.Fatal(err)
	}
	// 1->4: via 2 cost 4, via 3 cost 6 -> min 4.
	found := false
	out.Each(func(tp relation.Tuple) {
		if tp[0] == 1 && tp[1] == 4 {
			found = true
			if tp[2] != 4 {
				t.Fatalf("dist(1,4) = %d, want 4", tp[2])
			}
		}
	})
	if !found {
		t.Fatalf("no 1->4 path found: %v", out)
	}
}

// TestCircuitMatchesRAM: the annotated circuit agrees with the reference
// evaluator across semirings on random instances (bound-checked).
func TestCircuitMatchesRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, sr := range []Semiring{SumProduct(), MinPlus(), MaxPlus()} {
		sr := sr
		t.Run(sr.Name, func(t *testing.T) {
			for iter := 0; iter < 4; iter++ {
				q := query.Path2Projected()
				db := map[string]*relation.Relation{
					"R": annotatedRandom(rng, 10, 5, 4),
					"S": annotatedRandom(rng, 10, 5, 4),
				}
				want, err := EvaluateRAM(sr, q, db)
				if err != nil {
					t.Fatal(err)
				}
				// DC from the unannotated projections.
				plain := query.Database{}
				for name, r := range db {
					plain[name] = r.Project("x", "y")
				}
				dcs, err := query.DeriveDC(q, plain)
				if err != nil {
					t.Fatal(err)
				}
				ac, err := Compile(context.Background(), sr, q, dcs, float64(want.Len())+1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ac.Evaluate(context.Background(), db, true)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("iter %d (%s): circuit %v ≠ RAM %v", iter, sr.Name, got, want)
				}
			}
		})
	}
}

// TestCircuitFullQuery: join-aggregate over a full acyclic query
// (aggregation only deduplicates; annotations combine per tuple).
func TestCircuitFullQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	q := query.Path2()
	db := map[string]*relation.Relation{
		"R": annotatedRandom(rng, 8, 4, 3),
		"S": annotatedRandom(rng, 8, 4, 3),
	}
	want, err := EvaluateRAM(SumProduct(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	plain := query.Database{}
	for name, r := range db {
		plain[name] = r.Project("x", "y")
	}
	dcs, err := query.DeriveDC(q, plain)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := Compile(context.Background(), SumProduct(), q, dcs, float64(want.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ac.Evaluate(context.Background(), db, true)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("full-query circuit %v ≠ RAM %v", got, want)
	}
}

func TestBooleanSemiring(t *testing.T) {
	q := query.Path2Projected()
	r := Annotate(relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}),
		func(relation.Tuple) int64 { return 1 })
	s := Annotate(relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}),
		func(relation.Tuple) int64 { return 1 })
	out, err := EvaluateRAM(BoolOrAnd(), q, map[string]*relation.Relation{"R": r, "S": s})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(1, 3, 1) {
		t.Fatalf("boolean semiring = %v", out)
	}
}

func TestErrors(t *testing.T) {
	q := query.Path2()
	if _, err := EvaluateRAM(SumProduct(), q, map[string]*relation.Relation{}); err == nil {
		t.Fatal("expected missing relation error")
	}
	bare := map[string]*relation.Relation{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}),
	}
	if _, err := EvaluateRAM(SumProduct(), q, bare); err == nil {
		t.Fatal("expected unannotated relation error")
	}
}
