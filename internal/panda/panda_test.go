package panda

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// randomBinary builds a random binary relation with n tuples over [0,dom).
func randomBinary(rng *rand.Rand, n, dom int) *relation.Relation {
	r := relation.New("x", "y")
	for r.Len() < n {
		r.Insert(int64(rng.Intn(dom)), int64(rng.Intn(dom)))
	}
	return r
}

// compileAndCheck compiles q for its full variable set under the derived
// DC of db, evaluates the circuit with bound checking, and compares with
// the reference evaluator.
func compileAndCheck(t *testing.T, q *query.Query, db query.Database) *CompileResult {
	t.Helper()
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileFCQCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	pdb, err := PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := res.Circuit.EvaluateCtx(context.Background(), pdb, true)
	if err != nil {
		t.Fatalf("evaluate %s: %v\n%s", q, err, res.Circuit.String())
	}
	got := vals[res.Output]
	want, err := query.EvaluateCtx(context.Background(), &query.Query{
		VarNames: q.VarNames, Free: q.AllVars(), Atoms: q.Atoms,
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: circuit output %v ≠ reference %v", q, got, want)
	}
	return res
}

func tinyTriangleDB() query.Database {
	return query.Database{
		"R": relation.FromTuples([]string{"x", "y"},
			relation.Tuple{1, 2}, relation.Tuple{1, 3}, relation.Tuple{4, 5}, relation.Tuple{2, 2}),
		"S": relation.FromTuples([]string{"x", "y"},
			relation.Tuple{2, 3}, relation.Tuple{3, 4}, relation.Tuple{2, 2}, relation.Tuple{5, 1}),
		"T": relation.FromTuples([]string{"x", "y"},
			relation.Tuple{1, 3}, relation.Tuple{4, 6}, relation.Tuple{2, 2}, relation.Tuple{1, 4}),
	}
}

func TestCompileTriangleTiny(t *testing.T) {
	res := compileAndCheck(t, query.Triangle(), tinyTriangleDB())
	if res.Circuit.Size() == 0 {
		t.Fatal("empty circuit")
	}
	t.Logf("triangle circuit: %d gates, depth %d, cost %.1f, %d restarts",
		res.Circuit.Size(), res.Circuit.Depth(), res.Circuit.Cost(), res.Restarts)
}

func TestCompileTriangleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 8; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 40, 12),
			"S": randomBinary(rng, 40, 12),
			"T": randomBinary(rng, 40, 12),
		}
		compileAndCheck(t, query.Triangle(), db)
	}
}

func TestCompileTriangleSkewed(t *testing.T) {
	// A heavy hitter: one B value with very high degree, exercising the
	// decomposition branches unevenly.
	rng := rand.New(rand.NewSource(13))
	r := relation.New("x", "y")
	s := relation.New("x", "y")
	tt := relation.New("x", "y")
	for i := 0; i < 30; i++ {
		r.Insert(int64(rng.Intn(20)), 7) // B=7 heavy in R
		s.Insert(7, int64(rng.Intn(20)))
		tt.Insert(int64(rng.Intn(20)), int64(rng.Intn(20)))
	}
	for i := 0; i < 10; i++ {
		r.Insert(int64(rng.Intn(20)), int64(rng.Intn(20)))
		s.Insert(int64(rng.Intn(20)), int64(rng.Intn(20)))
	}
	compileAndCheck(t, query.Triangle(), query.Database{"R": r, "S": s, "T": tt})
}

func TestCompilePath2(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := query.Database{
		"R": randomBinary(rng, 30, 10),
		"S": randomBinary(rng, 30, 10),
	}
	compileAndCheck(t, query.Path2(), db)
}

func TestCompileStar3(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := query.Database{
		"R": randomBinary(rng, 25, 8),
		"S": randomBinary(rng, 25, 8),
		"T": randomBinary(rng, 25, 8),
	}
	compileAndCheck(t, query.Star3(), db)
}

func TestCompileCycle4(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := query.Database{
		"R": randomBinary(rng, 20, 6),
		"S": randomBinary(rng, 20, 6),
		"T": randomBinary(rng, 20, 6),
		"U": randomBinary(rng, 20, 6),
	}
	compileAndCheck(t, query.Cycle4(), db)
}

func TestCompilePath3(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := query.Database{
		"R": randomBinary(rng, 20, 6),
		"S": randomBinary(rng, 20, 6),
		"T": randomBinary(rng, 20, 6),
	}
	compileAndCheck(t, query.Path3(), db)
}

// TestCompileEmptyRelation: an empty input must produce an empty result.
func TestCompileEmptyRelation(t *testing.T) {
	db := tinyTriangleDB()
	db["S"] = relation.New("x", "y")
	q := query.Triangle()
	// Derived DC on an empty relation uses bound 1 (the DC floor).
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileFCQCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := res.Circuit.EvaluateCtx(context.Background(), pdb, true)
	if err != nil {
		t.Fatal(err)
	}
	if vals[res.Output].Len() != 0 {
		t.Fatalf("expected empty output, got %v", vals[res.Output])
	}
}

// TestCompileSubTarget: compiling for a bag target yields the bag
// relation (the triangle's AB-projection compatible with all atoms).
func TestCompileSubTarget(t *testing.T) {
	q := query.Triangle()
	db := tinyTriangleDB()
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	ab := query.SetOf(q.VarIndex("A"), q.VarIndex("B"))
	res, err := CompileCtx(context.Background(), q, dcs, ab)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := res.Circuit.EvaluateCtx(context.Background(), pdb, true)
	if err != nil {
		t.Fatal(err)
	}
	got := vals[res.Output]
	// Expectation: tuples of R_AB compatible with S on B and T on A.
	r, _ := query.AtomRelation(q, db, q.Atoms[0])
	s, _ := query.AtomRelation(q, db, q.Atoms[1])
	tt, _ := query.AtomRelation(q, db, q.Atoms[2])
	want := r.SemiJoin(s).SemiJoin(tt)
	if !got.Equal(want) {
		t.Fatalf("bag output %v ≠ want %v", got, want)
	}
}

// TestCircuitIsDataIndependent: the same compiled circuit evaluates
// correctly on several instances conforming to the same DC (uniformity).
func TestCircuitIsDataIndependent(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 32)
	res, err := CompileFCQCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 6; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 32, 10),
			"S": randomBinary(rng, 32, 10),
			"T": randomBinary(rng, 32, 10),
		}
		pdb, err := PrepareDB(q, db)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := res.Circuit.EvaluateCtx(context.Background(), pdb, true)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !vals[res.Output].Equal(want) {
			t.Fatalf("iter %d: mismatch", iter)
		}
	}
}

// TestCostMatchesTheorem3: the circuit's cost is Õ(N + DAPB). We check
// cost / (DAPB · polylog) stays bounded as N grows for the triangle.
func TestCostMatchesTheorem3(t *testing.T) {
	prev := 0.0
	for _, logN := range []int{4, 6, 8, 10, 12} {
		n := float64(int(1) << uint(logN))
		q := query.Triangle()
		res, err := CompileFCQCtx(context.Background(), q, query.Cardinalities(q, n))
		if err != nil {
			t.Fatal(err)
		}
		dapb := math.Pow(n, 1.5)
		ratio := res.Circuit.Cost() / (dapb * float64(logN*logN))
		t.Logf("N=2^%d: gates=%d cost=%.3g DAPB=%.3g ratio=%.3g restarts=%d",
			logN, res.Circuit.Size(), res.Circuit.Cost(), dapb, ratio, res.Restarts)
		if prev > 0 && ratio > prev*4 {
			t.Fatalf("cost ratio exploding: %g -> %g", prev, ratio)
		}
		prev = ratio
	}
}

// TestGateCountPolylog: relational circuit size must stay polylog in N
// (Theorem 3's Õ(1) size).
func TestGateCountPolylog(t *testing.T) {
	sizes := map[int]int{}
	for _, logN := range []int{4, 8, 12} {
		q := query.Triangle()
		res, err := CompileFCQCtx(context.Background(), q, query.Cardinalities(q, float64(int(1)<<uint(logN))))
		if err != nil {
			t.Fatal(err)
		}
		sizes[logN] = res.Circuit.Size()
	}
	// Size should grow at most linearly in log N (one decomposition
	// level), certainly not with N.
	if sizes[12] > sizes[4]*6 {
		t.Fatalf("gate count grows too fast: %v", sizes)
	}
}

func TestPrepareDBSelfJoin(t *testing.T) {
	q := query.MustParse("Q(A,B,C) :- E(A,B), E(B,C)")
	e := relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}, relation.Tuple{2, 3})
	db := query.Database{"E": e}
	pdb, err := PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdb) != 2 {
		t.Fatalf("PrepareDB entries = %d", len(pdb))
	}
	if _, ok := pdb["E#0"]; !ok {
		t.Fatal("missing E#0")
	}
	compileAndCheck(t, q, db)
}

func TestCompileRejectsInvalid(t *testing.T) {
	q := query.Triangle()
	if _, err := CompileFCQCtx(context.Background(), q, query.DCSet{{X: query.SetOf(2), Y: query.SetOf(0, 1), N: 4}}); err == nil {
		t.Fatal("expected invalid DC error")
	}
	if _, err := CompileCtx(context.Background(), q, query.Cardinalities(q, 4), 0); err == nil {
		t.Fatal("expected invalid target error")
	}
}

// TestWorstCaseTriangleStress: the compiled circuit handles the
// AGM-tight instance (output = N^{3/2}) at a moderate size with full
// bound checking — the adversarial case the polymatroid bound is sized
// for.
func TestWorstCaseTriangleStress(t *testing.T) {
	q := query.Triangle()
	side := 10 // N = 100 tuples per relation, 1000 output triangles
	grid := relation.New("x", "y")
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			grid.Insert(int64(a), int64(b))
		}
	}
	db := query.Database{"R": grid, "S": grid.Clone(), "T": grid.Clone()}
	res := compileAndCheck(t, q, db)
	want := float64(side * side * side)
	// Log2Rat approximates log₂ of non-powers-of-two to 12 decimals, so
	// allow the matching relative slack.
	if res.Bound.Value() < want*(1-1e-9) {
		t.Fatalf("bound %g below actual output %g", res.Bound.Value(), want)
	}
	t.Logf("worst case: %d gates, cost %.0f, bound %.0f, output %0.f",
		res.Circuit.Size(), res.Circuit.Cost(), res.Bound.Value(), want)
}

// TestSkewAcrossDecompositionLevels: degrees spanning several powers of
// two populate many decomposition branches at once.
func TestSkewAcrossDecompositionLevels(t *testing.T) {
	q := query.Triangle()
	s := relation.New("x", "y")
	// B values with degrees 1, 2, 4, 8 in S.
	v := int64(0)
	for _, deg := range []int{1, 2, 4, 8} {
		for k := 0; k < deg; k++ {
			s.Insert(int64(deg), v)
			v++
		}
	}
	r := relation.New("x", "y")
	tt := relation.New("x", "y")
	for b := range []int{0, 1, 2, 3} {
		deg := []int64{1, 2, 4, 8}[b]
		for a := int64(0); a < 3; a++ {
			r.Insert(a, deg)
		}
	}
	for a := int64(0); a < 3; a++ {
		for c := int64(0); c < v; c++ {
			tt.Insert(a, c)
		}
	}
	compileAndCheck(t, q, query.Database{"R": r, "S": s, "T": tt})
}
