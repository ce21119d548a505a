package core

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// decide runs a Boolean plan through the word-circuit interpreter and,
// with bound checks on, through its relational layer; the two must
// agree.
func decide(t *testing.T, bc *Compiled, db query.Database) bool {
	t.Helper()
	out, err := bc.EvaluateObliviousCtx(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := bc.EvaluateRelationalCtx(context.Background(), db, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, rgot := Decided(out), Decided(rel); got != rgot {
		t.Fatalf("oblivious circuit decides %v, relational circuit %v", got, rgot)
	}
	return Decided(out)
}

func TestBooleanTriangleDecision(t *testing.T) {
	q := query.BooleanTriangle()
	dcs := query.Cardinalities(q, 6)
	bc, err := CompileBooleanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}

	trueDB := query.Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}),
		"T": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 3}),
	}
	falseDB := query.Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}),
		"T": relation.FromTuples([]string{"x", "y"}, relation.Tuple{5, 5}),
	}
	for _, tc := range []struct {
		db   query.Database
		want bool
	}{{trueDB, true}, {falseDB, false}} {
		if got := decide(t, bc, tc.db); got != tc.want {
			t.Fatalf("decision = %v, want %v", got, tc.want)
		}
	}
}

func TestBooleanDecisionRandom(t *testing.T) {
	q := query.BooleanTriangle()
	dcs := query.Cardinalities(q, 8)
	bc, err := CompileBooleanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 5; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 8, 4),
			"S": randomBinary(rng, 8, 4),
			"T": randomBinary(rng, 8, 4),
		}
		ref, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if got := decide(t, bc, db); got != (ref.Len() > 0) {
			t.Fatalf("iter %d: decision = %v, reference %v", iter, got, ref.Len() > 0)
		}
	}
}

func TestCompileBooleanRejectsNonBoolean(t *testing.T) {
	if _, err := CompileBooleanCtx(context.Background(), query.Triangle(), query.Cardinalities(query.Triangle(), 4)); err == nil {
		t.Fatal("expected non-Boolean error")
	}
}
