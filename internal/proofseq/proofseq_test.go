package proofseq

import (
	"context"
	"math/big"
	"testing"

	"circuitql/internal/bound"
	"circuitql/internal/query"
)

func one() *big.Rat { return big.NewRat(1, 1) }

// triangleSets returns the variable sets used in the paper's running
// example (A=0, B=1, C=2 in the catalog triangle).
func triangleSets(q *query.Query) (A, B, C, AB, BC, AC, ABC query.VarSet) {
	a, b, c := q.VarIndex("A"), q.VarIndex("B"), q.VarIndex("C")
	return query.SetOf(a), query.SetOf(b), query.SetOf(c),
		query.SetOf(a, b), query.SetOf(b, c), query.SetOf(a, c),
		query.SetOf(a, b, c)
}

// TestPaperTriangleSequence verifies the paper's proof sequence (3) for
// inequality (2): h(AB)+h(BC)+h(AC) ≥ 2h(ABC).
func TestPaperTriangleSequence(t *testing.T) {
	q := query.Triangle()
	_, _, C, AB, BC, AC, ABC := triangleSets(q)

	delta := Vec{
		{X: 0, Y: AB}: one(),
		{X: 0, Y: BC}: one(),
		{X: 0, Y: AC}: one(),
	}
	lambda := Vec{{X: 0, Y: ABC}: big.NewRat(2, 1)}
	seq := Sequence{
		{Kind: Submod, I: AB, J: C, Weight: one()},
		{Kind: Decomp, X: C, Y: BC, Weight: one()},
		{Kind: Submod, I: BC, J: AC, Weight: one()},
		{Kind: Comp, X: C, Y: ABC, Weight: one()},
		{Kind: Comp, X: AC, Y: ABC, Weight: one()},
	}
	if err := Verify(delta, lambda, seq); err != nil {
		t.Fatalf("paper sequence rejected: %v", err)
	}
	want := "(1·s_{AB,C}, 1·d_{BC,C}, 1·s_{BC,AC}, 1·c_{C,ABC}, 1·c_{AC,ABC})"
	if got := seq.Label(q.VarNames); got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
}

func TestApplyRejectsOverconsumption(t *testing.T) {
	q := query.Triangle()
	_, _, _, AB, _, _, _ := triangleSets(q)
	delta := Vec{{X: 0, Y: AB}: big.NewRat(1, 2)}
	st := Step{Kind: Submod, I: AB, J: query.SetOf(2), Weight: one()}
	if err := Apply(delta, st); err == nil {
		t.Fatal("expected over-consumption error")
	}
}

func TestStepValidation(t *testing.T) {
	A := query.SetOf(0)
	AB := query.SetOf(0, 1)
	bad := []Step{
		{Kind: Submod, I: A, J: AB, Weight: one()},          // I ⊆ J
		{Kind: Mono, X: AB, Y: A, Weight: one()},            // X ⊄ Y
		{Kind: Mono, X: AB, Y: AB, Weight: one()},           // X = Y
		{Kind: Comp, X: 0, Y: AB, Weight: one()},            // empty X
		{Kind: Decomp, X: AB, Y: AB, Weight: one()},         // X = Y
		{Kind: Comp, X: A, Y: AB, Weight: big.NewRat(0, 1)}, // zero weight
	}
	for i, st := range bad {
		if err := st.validate(); err == nil {
			t.Errorf("step %d should be invalid: %+v", i, st)
		}
	}
}

func TestVerifyDominanceFailure(t *testing.T) {
	AB := query.SetOf(0, 1)
	ABC := query.SetOf(0, 1, 2)
	delta := Vec{{X: 0, Y: AB}: one()}
	lambda := Vec{{X: 0, Y: ABC}: one()}
	if err := Verify(delta, lambda, nil); err == nil {
		t.Fatal("expected dominance failure")
	}
}

func TestVecBasics(t *testing.T) {
	AB := query.SetOf(0, 1)
	v := Vec{}
	v.add(Pair{X: 0, Y: AB}, big.NewRat(1, 2))
	v.add(Pair{X: 0, Y: AB}, big.NewRat(-1, 2))
	if len(v) != 0 {
		t.Fatal("exact zero should be deleted")
	}
	v.add(Pair{X: 0, Y: AB}, one())
	c := v.Clone()
	c.add(Pair{X: 0, Y: AB}, one())
	if v.Get(Pair{X: 0, Y: AB}).Cmp(one()) != 0 {
		t.Fatal("Clone is not deep")
	}
}

// buildFor computes the bound and builds a proof sequence for q under
// dcs, asserting success.
func buildFor(t *testing.T, q *query.Query, dcs query.DCSet) (Sequence, Vec, *bound.Result) {
	t.Helper()
	res, err := bound.LogDAPBCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatalf("bound: %v", err)
	}
	seq, delta, err := BuildCtx(context.Background(), q, res)
	if err != nil {
		t.Fatalf("Build(%s): %v", q, err)
	}
	return seq, delta, res
}

// TestBuildTriangleAGM: the automatic builder handles the paper's running
// example under uniform cardinalities.
func TestBuildTriangleAGM(t *testing.T) {
	q := query.Triangle()
	seq, delta, res := buildFor(t, q, query.Cardinalities(q, 1024))
	if err := Verify(delta, Lambda(res.Target), seq); err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 || len(seq) > 64 {
		t.Fatalf("suspicious sequence length %d: %s", len(seq), seq.Label(q.VarNames))
	}
	t.Logf("triangle sequence: %s", seq.Label(q.VarNames))
}

// TestBuildCatalog: the builder succeeds on the whole canonical suite
// under uniform cardinality constraints.
func TestBuildCatalog(t *testing.T) {
	for _, e := range query.Catalog() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			q := e.Query
			seq, delta, res := buildFor(t, q, query.Cardinalities(q, 256))
			if err := Verify(delta, Lambda(res.Target), seq); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			t.Logf("%s (len %d): %s", e.Name, len(seq), seq.Label(q.VarNames))
		})
	}
}

// TestBuildWithFD: triangle plus functional dependency A→B (bound N).
func TestBuildWithFD(t *testing.T) {
	q := query.Triangle()
	A, _, _, AB, _, _, _ := triangleSets(q)
	dcs := append(query.Cardinalities(q, 1024), query.DegreeConstraint{X: A, Y: AB, N: 1})
	seq, delta, res := buildFor(t, q, dcs)
	if err := Verify(delta, Lambda(res.Target), seq); err != nil {
		t.Fatal(err)
	}
	t.Logf("triangle+FD sequence: %s", seq.Label(q.VarNames))
}

// TestBuildWithDegreeConstraint: triangle with deg(BC|B) ≤ 4.
func TestBuildWithDegreeConstraint(t *testing.T) {
	q := query.Triangle()
	_, B, _, _, BC, _, _ := triangleSets(q)
	dcs := append(query.Cardinalities(q, 256), query.DegreeConstraint{X: B, Y: BC, N: 4})
	seq, delta, res := buildFor(t, q, dcs)
	if err := Verify(delta, Lambda(res.Target), seq); err != nil {
		t.Fatal(err)
	}
	t.Logf("triangle+deg sequence: %s", seq.Label(q.VarNames))
}

// TestBuildSubTarget: proof sequences for a GHD-bag target (h(AB)).
func TestBuildSubTarget(t *testing.T) {
	q := query.Triangle()
	_, _, _, AB, _, _, _ := triangleSets(q)
	res, err := bound.LogBoundCtx(context.Background(), q, query.Cardinalities(q, 256), AB)
	if err != nil {
		t.Fatal(err)
	}
	seq, delta, err := BuildCtx(context.Background(), q, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(delta, Lambda(AB), seq); err != nil {
		t.Fatal(err)
	}
}

// TestBuildHeterogeneous: non-uniform cardinalities change δ weights.
func TestBuildHeterogeneous(t *testing.T) {
	q := query.Triangle()
	idx := func(n string) int { return q.VarIndex(n) }
	dcs := query.DCSet{
		{X: 0, Y: query.SetOf(idx("A"), idx("B")), N: 16},
		{X: 0, Y: query.SetOf(idx("B"), idx("C")), N: 64},
		{X: 0, Y: query.SetOf(idx("A"), idx("C")), N: 256},
	}
	seq, delta, res := buildFor(t, q, dcs)
	if err := Verify(delta, Lambda(res.Target), seq); err != nil {
		t.Fatal(err)
	}
}

func TestStepKindString(t *testing.T) {
	if Submod.String() != "s" || Mono.String() != "m" || Comp.String() != "c" || Decomp.String() != "d" {
		t.Fatal("StepKind.String wrong")
	}
}

func TestPairLabel(t *testing.T) {
	names := []string{"A", "B", "C"}
	p := Pair{X: query.SetOf(0), Y: query.SetOf(0, 1)}
	if p.Label(names) != "h(AB|A)" {
		t.Fatalf("Label = %q", p.Label(names))
	}
	p2 := Pair{X: 0, Y: query.SetOf(2)}
	if p2.Label(names) != "h(C)" {
		t.Fatalf("Label = %q", p2.Label(names))
	}
}
