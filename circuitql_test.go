package circuitql

import (
	"context"
	"math/big"
	"testing"

	"circuitql/internal/workload"
)

func TestFacadeCompileAndEvaluate(t *testing.T) {
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	db := workload.TriangleDB(workload.TriangleUniform, 42, 12)
	dcs, err := DeriveConstraints(q, db)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Compile(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cq.Evaluate(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateRAM(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("facade evaluate mismatch")
	}
	rel, err := cq.EvaluateRelational(context.Background(), db, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(want) {
		t.Fatal("relational layer mismatch")
	}
	st := cq.Stats()
	if st.Gates == 0 || st.Depth == 0 || st.RelationalGates == 0 || st.DAPB <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The program counts are the plan's program's, the one Evaluate runs.
	p := cq.inner.Prog
	if swaps, lexes := p.Fused(); st.Instructions != p.Instructions() || st.Swaps != swaps || st.Lexes != lexes ||
		st.Slots != p.Slots() || st.Levels != p.Levels() || st.Runs != p.Runs() || st.Instructions == 0 {
		t.Fatalf("stats = %+v, program %d instructions, %d slots, %d levels, %d runs",
			st, p.Instructions(), p.Slots(), p.Levels(), p.Runs())
	}
	if s1, s2 := cq.BrentSteps(1), cq.BrentSteps(1<<20); s2 >= s1 {
		t.Fatalf("Brent steps not decreasing: %d vs %d", s1, s2)
	}
}

func TestFacadeBoundsAndWidths(t *testing.T) {
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	dcs := UniformCardinalities(q, 1024)
	b, err := PolymatroidBound(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cmp(big.NewRat(15, 1)) != 0 {
		t.Fatalf("LOGDAPB = %v, want 15", b)
	}
	w, err := ComputeWidths(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if w.Fhtw.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("fhtw = %v", w.Fhtw)
	}
	if w.DAFhtw.Cmp(big.NewRat(15, 1)) != 0 {
		t.Fatalf("da-fhtw = %v", w.DAFhtw)
	}
	if w.DASubw.Cmp(w.DAFhtw) > 0 {
		t.Fatalf("da-subw %v > da-fhtw %v", w.DASubw, w.DAFhtw)
	}
}

func TestFacadeOutputSensitive(t *testing.T) {
	q, err := ParseQuery("Q(A,C) :- R(A,B), S(B,C)")
	if err != nil {
		t.Fatal(err)
	}
	db := Database{
		"R": workload.UniformBinary(3, 15, 8),
		"S": workload.UniformBinary(4, 15, 8),
	}
	dcs, err := DeriveConstraints(q, db)
	if err != nil {
		t.Fatal(err)
	}
	os, err := OutputSensitive(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateRAM(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	n, err := os.Count(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if n != want.Len() {
		t.Fatalf("Count = %d, want %d", n, want.Len())
	}
	got, err := os.Evaluate(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("output-sensitive evaluate mismatch")
	}
	if g, d, c := os.CountCircuitStats(); g == 0 || d == 0 || c <= 0 {
		t.Fatalf("count stats = %d %d %g", g, d, c)
	}
	if os.WidthBits().Sign() <= 0 {
		t.Fatal("width should be positive")
	}
}

func TestFacadeRelationHelpers(t *testing.T) {
	r := NewRelation("A", "B")
	r.Insert(1, 2)
	if r.Len() != 1 {
		t.Fatal("NewRelation broken")
	}
}
