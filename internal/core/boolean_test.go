package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"circuitql/internal/obs"
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

// TestBooleanPlanTakesTheCompileTail: a Boolean plan comes out of the
// full-CQ compile's tail, so it carries what that tail gives a plan —
// an optimizer report whose swept size is the plan's circuit, the proof
// sequence, a program of that circuit, and one compile span with the
// optimize stage under it.
func TestBooleanPlanTakesTheCompileTail(t *testing.T) {
	q := query.BooleanTriangle()
	tracer := obs.NewTracer(4)
	bc, err := CompileBooleanCtx(obs.WithTracer(context.Background(), tracer), q, query.Cardinalities(q, 4))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Opt == nil || bc.Opt.WordGatesAfter != bc.Obliv.C.Size() || bc.Opt.WordGatesAfter > bc.Opt.WordGatesBefore {
		t.Fatalf("optimizer report %+v for a %d-gate circuit", bc.Opt, bc.Obliv.C.Size())
	}
	if len(bc.Seq) == 0 {
		t.Fatal("no proof sequence recorded")
	}
	if bc.Prog.Gates() != bc.Obliv.C.Size() {
		t.Fatalf("program stands for %d gates, the circuit has %d", bc.Prog.Gates(), bc.Obliv.C.Size())
	}
	roots := tracer.Last(1)
	if len(roots) != 1 || roots[0].Name != obs.StageCompile {
		t.Fatalf("trace roots %v, want one compile span", roots)
	}
	if !strings.Contains(obs.Format(roots[0]), obs.StageOptimize) {
		t.Fatalf("compile span has no optimize stage:\n%s", obs.Format(roots[0]))
	}
}

func TestCompileBooleanRejectsNonBoolean(t *testing.T) {
	if _, err := CompileBooleanCtx(context.Background(), query.Triangle(), query.Cardinalities(query.Triangle(), 4)); err == nil {
		t.Fatal("expected non-Boolean error")
	}
}
