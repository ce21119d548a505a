package yannakakis

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

func randomBinary(rng *rand.Rand, n, dom int) *relation.Relation {
	r := relation.New("x", "y")
	for r.Len() < n {
		r.Insert(int64(rng.Intn(dom)), int64(rng.Intn(dom)))
	}
	return r
}

func dbFor(rng *rand.Rand, q *query.Query, n, dom int) query.Database {
	db := query.Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Name]; !ok {
			db[a.Name] = randomBinary(rng, n, dom)
		}
	}
	return db
}

// checkQuery cross-checks the RAM Yannakakis, the count circuit, and the
// evaluation circuit against the reference evaluator on one database.
func checkQuery(t *testing.T, q *query.Query, db query.Database) {
	t.Helper()
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}

	gotRAM, err := plan.EvaluateRAMCtx(context.Background(), db)
	if err != nil {
		t.Fatalf("RAM: %v", err)
	}
	if !gotRAM.Equal(want) {
		t.Fatalf("%s RAM Yannakakis: got %v want %v", q, gotRAM, want)
	}

	cc, err := plan.CompileCountCtx(context.Background())
	if err != nil {
		t.Fatalf("count circuit: %v", err)
	}
	cnt, err := cc.CountCtx(context.Background(), db, true)
	if err != nil {
		t.Fatalf("count eval: %v", err)
	}
	if cnt != want.Len() {
		t.Fatalf("%s count circuit = %d, want %d", q, cnt, want.Len())
	}

	ec, err := plan.CompileEvalCtx(context.Background(), float64(cnt))
	if err != nil {
		t.Fatalf("eval circuit: %v", err)
	}
	got, err := ec.EvaluateCtx(context.Background(), db, true)
	if err != nil {
		t.Fatalf("eval circuit run: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s Yannakakis-C: got %v want %v", q, got, want)
	}
}

func TestFullAcyclicQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, e := range []query.CatalogEntry{
		{Name: "path2", Query: query.Path2()},
		{Name: "path3", Query: query.Path3()},
		{Name: "star3", Query: query.Star3()},
	} {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			for iter := 0; iter < 3; iter++ {
				checkQuery(t, e.Query, dbFor(rng, e.Query, 12, 6))
			}
		})
	}
}

func TestCyclicQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	t.Run("triangle", func(t *testing.T) {
		checkQuery(t, query.Triangle(), dbFor(rng, query.Triangle(), 14, 6))
	})
	t.Run("cycle4", func(t *testing.T) {
		checkQuery(t, query.Cycle4(), dbFor(rng, query.Cycle4(), 10, 5))
	})
}

func TestProjectedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	t.Run("path2_projected", func(t *testing.T) {
		for iter := 0; iter < 3; iter++ {
			checkQuery(t, query.Path2Projected(), dbFor(rng, query.Path2Projected(), 12, 6))
		}
	})
	t.Run("path3_endpoints", func(t *testing.T) {
		checkQuery(t, query.Path3Endpoints(), dbFor(rng, query.Path3Endpoints(), 10, 5))
	})
}

func TestBooleanQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	q := query.BooleanTriangle()
	for iter := 0; iter < 4; iter++ {
		db := dbFor(rng, q, 8, 5)
		checkQuery(t, q, db)
	}
}

func TestEmptyResult(t *testing.T) {
	q := query.Path2()
	db := query.Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{9, 9}),
	}
	checkQuery(t, q, db)
}

// TestCountCircuitIsOutputIndependent: the count circuit is built from DC
// only; the same circuit counts different conforming instances.
func TestCountCircuitIsOutputIndependent(t *testing.T) {
	q := query.Path2()
	dcs := query.Cardinalities(q, 12)
	plan, err := NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := plan.CompileCountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(113))
	for iter := 0; iter < 4; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 12, 5),
			"S": randomBinary(rng, 12, 5),
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.CountCtx(context.Background(), db, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Len() {
			t.Fatalf("iter %d: count %d want %d", iter, got, want.Len())
		}
	}
}

// TestEvalCircuitSizeScalesWithOUT: Theorem 5's size is Õ(N + 2^w + OUT);
// at fixed N, doubling OUT should grow the circuit cost roughly linearly,
// not quadratically.
func TestEvalCircuitCostScalesWithOUT(t *testing.T) {
	q := query.Path2()
	dcs := query.Cardinalities(q, 64)
	plan, err := NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(out float64) float64 {
		ec, err := plan.CompileEvalCtx(context.Background(), out)
		if err != nil {
			t.Fatal(err)
		}
		return ec.Circuit.Cost()
	}
	c1, c4 := cost(256), cost(1024)
	if c4 > 4.5*c1 {
		t.Fatalf("cost grows superlinearly in OUT: %g -> %g", c1, c4)
	}
	if c4 <= c1 {
		t.Fatalf("cost should grow with OUT: %g -> %g", c1, c4)
	}
}

// TestEvalRejectsUndersizedOUT is a sanity check: with OUT smaller than
// |Q(D)|, checked evaluation reports a bound violation rather than
// silently dropping tuples.
func TestEvalRejectsUndersizedOUT(t *testing.T) {
	q := query.Path2()
	rng := rand.New(rand.NewSource(127))
	db := query.Database{
		"R": randomBinary(rng, 12, 4),
		"S": randomBinary(rng, 12, 4),
	}
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 4 {
		t.Skip("instance too small to undersize")
	}
	ec, err := plan.CompileEvalCtx(context.Background(), float64(want.Len()/2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.EvaluateCtx(context.Background(), db, true); err == nil {
		t.Fatal("expected bound violation with undersized OUT")
	}
}

func TestPlanValidation(t *testing.T) {
	q := query.Triangle()
	if _, err := NewPlanCtx(context.Background(), q, query.DCSet{{X: query.SetOf(2), Y: query.SetOf(0, 1), N: 2}}); err == nil {
		t.Fatal("expected invalid DC error")
	}
}

// TestLoomisWhitney4Plan: ternary atoms, single-bag GHD, full pipeline.
func TestLoomisWhitney4Plan(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	q := query.LoomisWhitney4()
	db := query.Database{}
	for _, name := range []string{"R", "S", "T", "U"} {
		r := relation.New("a", "b", "c")
		for r.Len() < 10 {
			r.Insert(int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(4)))
		}
		db[name] = r
	}
	checkQuery(t, q, db)
}

// TestTriangleWithFDPlan: the FD-constrained triangle's plan exploits the
// smaller bag bound end to end.
func TestTriangleWithFDPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	q := query.Triangle()
	// R satisfies A→B (domain must exceed the tuple count: the FD allows
	// at most one tuple per A value).
	r := relation.New("x", "y")
	img := map[int64]int64{}
	for r.Len() < 12 {
		a := int64(rng.Intn(30))
		b, ok := img[a]
		if !ok {
			b = int64(rng.Intn(10))
			img[a] = b
		}
		r.Insert(a, b)
	}
	db := query.Database{
		"R": r,
		"S": randomBinary(rng, 12, 10),
		"T": randomBinary(rng, 12, 10),
	}
	checkQuery(t, q, db)
}

// TestBowtiePlanRAM: the 5-variable bowtie through the RAM pipeline
// (bag circuits for bowtie are exercised separately; the RAM path checks
// the decomposition logic at larger query size).
func TestBowtiePlanRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	q := query.Bowtie()
	db := query.Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Name]; !ok {
			db[a.Name] = randomBinary(rng, 10, 5)
		}
	}
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.EvaluateRAMCtx(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("bowtie RAM Yannakakis mismatch")
	}
}
