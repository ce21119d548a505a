package baseline

import (
	"context"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/workload"
)

func TestGenericJoinIndexedMatchesReference(t *testing.T) {
	for _, e := range []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path3", Query: query.Path3()},
		{Name: "cycle4", Query: query.Cycle4()},
		{Name: "star3", Query: query.Star3()},
		{Name: "path2_projected", Query: query.Path2Projected()},
		{Name: "loomis_whitney4", Query: query.LoomisWhitney4()},
	} {
		q := e.Query
		db := workload.ForQuery(q, 31, 20)
		got, err := GenericJoinIndexed(q, db)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: indexed generic join %v ≠ %v", e.Name, got, want)
		}
	}
}

func TestGenericJoinIndexedWorstCase(t *testing.T) {
	q := query.Triangle()
	db := workload.WorstCaseTriangle(64) // 8×8 grids, 512 triangles
	got, err := GenericJoinIndexed(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 512 {
		t.Fatalf("triangles = %d, want 512", got.Len())
	}
}

func TestGenericJoinIndexedSelfJoin(t *testing.T) {
	q := query.MustParse("Q(A,B,C) :- E(A,B), E(B,C)")
	db := workload.ForQuery(q, 17, 25)
	got, err := GenericJoinIndexed(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("self-join mismatch")
	}
}

func BenchmarkGenericJoinScan(b *testing.B) {
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 37, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenericJoin(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericJoinIndexed(b *testing.B) {
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 37, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenericJoinIndexed(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinPlan(b *testing.B) {
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 37, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashJoinPlan(context.Background(), q, db); err != nil {
			b.Fatal(err)
		}
	}
}
