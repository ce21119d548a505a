package baseline

import (
	"context"
	"math"
	"testing"

	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

func TestNaiveCircuitCorrect(t *testing.T) {
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 7, 20)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	c, out, err := NaiveCircuit(q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := panda.PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := c.EvaluateCtx(context.Background(), pdb, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !vals[out].Equal(want) {
		t.Fatalf("naive circuit wrong: %v vs %v", vals[out], want)
	}
}

// TestNaiveCostIsNCubed: under uniform cardinalities the naive triangle
// circuit costs Θ(N³) — the SMCQL baseline the paper improves on.
func TestNaiveCostIsNCubed(t *testing.T) {
	q := query.Triangle()
	costFor := func(n float64) float64 {
		c, _, err := NaiveCircuit(q, query.Cardinalities(q, n))
		if err != nil {
			t.Fatal(err)
		}
		return c.Cost()
	}
	c16, c64 := costFor(16), costFor(64)
	ratio := c64 / c16
	// N³ growth: ratio 64; allow slack for the lower-order terms.
	if ratio < 40 || ratio > 80 {
		t.Fatalf("naive cost ratio %g, want ≈ 64 (cubic)", ratio)
	}
}

// TestHeavyLightTriangleCorrect: the Figure 1 circuit computes the
// triangle join on uniform, skewed, and worst-case data.
func TestHeavyLightTriangleCorrect(t *testing.T) {
	q := query.Triangle()
	for _, kind := range []workload.TriangleKind{
		workload.TriangleUniform, workload.TriangleSkewed, workload.TriangleWorstCase,
	} {
		db := workload.TriangleDB(kind, 11, 25)
		n := 0
		for _, r := range db {
			if r.Len() > n {
				n = r.Len()
			}
		}
		c, out := HeavyLightTriangle(float64(n))
		pdb, err := panda.PrepareDB(q, db)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := c.EvaluateCtx(context.Background(), pdb, true)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !vals[out].Equal(want) {
			t.Fatalf("kind %d: heavy/light wrong", kind)
		}
	}
}

// TestHeavyLightCostIsN15: Figure 1's cost is Θ(N^{3/2}).
func TestHeavyLightCostIsN15(t *testing.T) {
	cost := func(n float64) float64 {
		c, _ := HeavyLightTriangle(n)
		return c.Cost()
	}
	ratio := cost(4096) / cost(256)
	// (4096/256)^1.5 = 64.
	if ratio < 40 || ratio > 90 {
		t.Fatalf("heavy/light cost ratio %g, want ≈ 64", ratio)
	}
	// And it beats the naive circuit asymptotically.
	q := query.Triangle()
	naive, _, err := NaiveCircuit(q, query.Cardinalities(q, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if cost(4096) >= naive.Cost() {
		t.Fatalf("heavy/light (%g) should beat naive (%g) at N=4096", cost(4096), naive.Cost())
	}
}

func TestGenericJoinMatchesReference(t *testing.T) {
	for _, e := range []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path3", Query: query.Path3()},
		{Name: "cycle4", Query: query.Cycle4()},
		{Name: "path2_projected", Query: query.Path2Projected()},
	} {
		q := e.Query
		db := workload.ForQuery(q, 13, 18)
		got, err := GenericJoin(q, db)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: generic join %v ≠ %v", e.Name, got, want)
		}
	}
}

func TestGenericJoinWorstCase(t *testing.T) {
	q := query.Triangle()
	db := workload.WorstCaseTriangle(16) // 4×4 grids -> 64 triangles
	got, err := GenericJoin(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 64 {
		t.Fatalf("worst-case triangle count = %d, want 64", got.Len())
	}
	if math.Abs(math.Pow(16, 1.5)-float64(got.Len())) > 1 {
		t.Fatalf("output should be N^1.5")
	}
}

func TestNaiveCircuitErrors(t *testing.T) {
	q := query.Triangle()
	if _, _, err := NaiveCircuit(q, query.DCSet{}); err == nil {
		t.Fatal("expected missing cardinality error")
	}
}
