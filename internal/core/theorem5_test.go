package core

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/baseline"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/semiring"
	"circuitql/internal/yannakakis"
)

// Theorem 5 end to end: the OUT-computing circuit and the evaluation
// circuit are genuine oblivious circuits, not just relational plans —
// lower both through the word-level compiler and evaluate.

func TestCountCircuitLowersToWordGates(t *testing.T) {
	q := query.Path2()
	dcs := query.Cardinalities(q, 10)
	plan, err := yannakakis.NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := plan.CompileCountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	obl, err := CompileObliviousCtx(context.Background(), cc.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(301))
	for iter := 0; iter < 3; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 10, 5),
			"S": randomBinary(rng, 10, 5),
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		pdb, err := panda.PrepareDB(q, db)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := obl.EvaluateCtx(context.Background(), pdb)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[cc.Output]
		if got.Len() != 1 {
			t.Fatalf("iter %d: count relation = %v", iter, got)
		}
		if got.Tuples()[0][got.AttrPos(yannakakis.CountAttr)] != int64(want.Len()) {
			t.Fatalf("iter %d: oblivious count = %v, want %d", iter, got, want.Len())
		}
	}
	t.Logf("oblivious OUT-circuit: %d word gates, depth %d", obl.C.Size(), obl.C.Depth())
}

func TestEvalCircuitLowersToWordGates(t *testing.T) {
	q := query.Path2()
	dcs := query.Cardinalities(q, 8)
	plan, err := yannakakis.NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	const out = 24
	ec, err := plan.CompileEvalCtx(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	obl, err := CompileObliviousCtx(context.Background(), ec.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(307))
	for iter := 0; iter < 3; iter++ {
		var db query.Database
		var want *relation.Relation
		for { // resample until |Q(D)| fits the compiled OUT
			db = query.Database{
				"R": randomBinary(rng, 8, 5),
				"S": randomBinary(rng, 8, 5),
			}
			w, err := query.EvaluateCtx(context.Background(), q, db)
			if err != nil {
				t.Fatal(err)
			}
			if w.Len() <= out {
				want = w
				break
			}
		}
		pdb, err := panda.PrepareDB(q, db)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := obl.EvaluateCtx(context.Background(), pdb)
		if err != nil {
			t.Fatal(err)
		}
		if !outs[ec.Output].Equal(want) {
			t.Fatalf("iter %d: oblivious Yannakakis-C = %v, want %v", iter, outs[ec.Output], want)
		}
	}
	t.Logf("oblivious Yannakakis-C: %d word gates, depth %d", obl.C.Size(), obl.C.Depth())
}

func TestSemiringCircuitLowersToWordGates(t *testing.T) {
	q := query.Path2Projected()
	sr := semiring.SumProduct()
	r := semiring.Annotate(randomBinary(rand.New(rand.NewSource(311)), 8, 4),
		func(relation.Tuple) int64 { return 1 })
	s := semiring.Annotate(randomBinary(rand.New(rand.NewSource(313)), 8, 4),
		func(relation.Tuple) int64 { return 1 })
	db := map[string]*relation.Relation{"R": r, "S": s}
	plain := query.Database{"R": r.Project("x", "y"), "S": s.Project("x", "y")}
	dcs, err := query.DeriveDC(q, plain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := semiring.EvaluateRAM(sr, q, db)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := semiring.Compile(context.Background(), sr, q, dcs, float64(want.Len()))
	if err != nil {
		t.Fatal(err)
	}
	obl, err := CompileObliviousCtx(context.Background(), ac.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := semiring.PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := obl.EvaluateCtx(context.Background(), pdb)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[ac.Output].Equal(want) {
		t.Fatalf("oblivious semiring circuit = %v, want %v", outs[ac.Output], want)
	}
}

// TestFigure1LowersToWordGates: the hand-built heavy/light circuit also
// compiles obliviously (Example 1's construction as a real circuit).
func TestFigure1LowersToWordGates(t *testing.T) {
	// Built at tiny N so the lowering stays fast.
	q := query.Triangle()
	rng := rand.New(rand.NewSource(317))
	db := query.Database{
		"R": randomBinary(rng, 6, 4),
		"S": randomBinary(rng, 6, 4),
		"T": randomBinary(rng, 6, 4),
	}
	hl, out := baseline.HeavyLightTriangle(6)
	obl, err := CompileObliviousCtx(context.Background(), hl)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := panda.PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := obl.EvaluateCtx(context.Background(), pdb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[out].Equal(want) {
		t.Fatalf("oblivious Figure 1 = %v, want %v", outs[out], want)
	}
	if obl.C.Size() == 0 {
		t.Fatal("no gates")
	}
}
