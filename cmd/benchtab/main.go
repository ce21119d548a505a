// Command benchtab regenerates every experiment table of EXPERIMENTS.md
// (E1-E12, the per-figure/per-theorem reproductions listed in DESIGN.md)
// in one run. Pass -experiment E4 to run a single one.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"strings"

	"circuitql/internal/baseline"
	"circuitql/internal/bitblast"
	"circuitql/internal/boolcircuit"
	"circuitql/internal/bound"
	"circuitql/internal/core"
	"circuitql/internal/ghd"
	"circuitql/internal/opcircuits"
	"circuitql/internal/panda"
	"circuitql/internal/proofseq"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/semiring"
	"circuitql/internal/stats"
	"circuitql/internal/workload"
	"circuitql/internal/yannakakis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")
	only := flag.String("experiment", "", "run a single experiment (E1..E12)")
	flag.Parse()
	ctx := context.Background()

	experiments := []struct {
		id   string
		name string
		run  func(context.Context)
	}{
		{"E1", "Figure 1: heavy/light triangle circuit", e1},
		{"E2", "Figure 2: PANDA-C triangle circuit", e2},
		{"E3", "Theorem 3: PANDA-C across the suite", e3},
		{"E4", "Theorem 4: oblivious circuits", e4},
		{"E5", "Figure 3: primary-key join circuit", e5},
		{"E6", "Figure 4: degree-bounded join circuit", e6},
		{"E7", "Theorem 5: output-sensitive circuits", e7},
		{"E8", "Brent speedup (PRAM simulation)", e8},
		{"E9", "Naive circuit vs PANDA-C crossover", e9},
		{"E10", "Section 7: join-aggregate semirings", e10},
		{"E11", "Theorems 1-2: bounds and proof sequences", e11},
		{"E12", "Sections 6-7: width measures", e12},
	}
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("== %s — %s ==\n", e.id, e.name)
		e.run(ctx)
		fmt.Println()
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func e1(context.Context) {
	tb := stats.NewTable("N", "rel gates", "depth", "cost", "cost/N^1.5")
	var xs, ys []float64
	for _, n := range []float64{256, 1024, 4096, 16384, 65536} {
		c, _ := baseline.HeavyLightTriangle(n)
		tb.Row(n, c.Size(), c.Depth(), c.Cost(), c.Cost()/math.Pow(n, 1.5))
		xs = append(xs, n)
		ys = append(ys, c.Cost())
	}
	fmt.Print(tb)
	k, _ := stats.FitPowerLaw(xs, ys)
	fmt.Printf("fitted cost exponent: %.3f (paper: 1.5)\n", k)
}

func e2(ctx context.Context) {
	q := query.Triangle()
	tb := stats.NewTable("N", "rel gates", "depth", "cost", "restarts", "cost/N^1.5")
	var xs, ys []float64
	for _, n := range []float64{64, 256, 1024, 4096, 16384} {
		res := must(panda.CompileFCQCtx(ctx, q, query.Cardinalities(q, n)))
		tb.Row(n, res.Circuit.Size(), res.Circuit.Depth(), res.Circuit.Cost(),
			res.Restarts, res.Circuit.Cost()/math.Pow(n, 1.5))
		xs = append(xs, n)
		ys = append(ys, res.Circuit.Cost())
	}
	fmt.Print(tb)
	k, _ := stats.FitPowerLaw(xs, ys)
	fmt.Printf("fitted cost exponent: %.3f (paper: 1.5 up to polylog)\n", k)
	res := must(panda.CompileFCQCtx(ctx, q, query.Cardinalities(q, 1024)))
	fmt.Printf("proof sequence: %s\n", res.Seq.Label(q.VarNames))
}

func e3(ctx context.Context) {
	suite := []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path3", Query: query.Path3()},
		{Name: "star3", Query: query.Star3()},
		{Name: "cycle4", Query: query.Cycle4()},
		{Name: "loomis_whitney4", Query: query.LoomisWhitney4()},
	}
	const n = 1024
	tb := stats.NewTable("query", "ρ*", "DAPB", "rel gates", "cost", "cost/(N+DAPB)")
	for _, e := range suite {
		dcs := query.Cardinalities(e.Query, n)
		res := must(panda.CompileFCQCtx(ctx, e.Query, dcs))
		rho := must(bound.FractionalEdgeCoverNumber(ctx, e.Query))
		rhoF, _ := rho.Float64()
		dapb := res.Bound.Value()
		tb.Row(e.Name, rhoF, dapb, res.Circuit.Size(), res.Circuit.Cost(),
			res.Circuit.Cost()/(float64(len(e.Query.Atoms))*n+dapb))
	}
	fmt.Print(tb)
	fmt.Println("cost/(N+DAPB) is the polylog factor of Theorem 3 (constant-ish per query).")

	// Degree-constrained variants.
	fmt.Println("\nwith degree constraints (triangle, N=1024):")
	q := query.Triangle()
	dt := stats.NewTable("constraints", "DAPB", "cost")
	base := query.Cardinalities(q, n)
	res := must(panda.CompileFCQCtx(ctx, q, base))
	dt.Row("cardinalities only", res.Bound.Value(), res.Circuit.Cost())
	fd := append(query.Cardinalities(q, n),
		query.DegreeConstraint{X: query.SetOf(0), Y: query.SetOf(0, 1), N: 1})
	res = must(panda.CompileFCQCtx(ctx, q, fd))
	dt.Row("+ FD A→B", res.Bound.Value(), res.Circuit.Cost())
	deg := append(query.Cardinalities(q, n),
		query.DegreeConstraint{X: query.SetOf(1), Y: query.SetOf(1, 2), N: 8})
	res = must(panda.CompileFCQCtx(ctx, q, deg))
	dt.Row("+ deg(BC|B) ≤ 8", res.Bound.Value(), res.Circuit.Cost())
	fmt.Print(dt)
}

func e4(ctx context.Context) {
	q := query.Triangle()
	tb := stats.NewTable("N", "word gates", "depth", "gates/(N+DAPB)", "depth/log²(gates)")
	var xs, ys []float64
	for _, n := range []float64{8, 16, 32, 64} {
		res := must(panda.CompileFCQCtx(ctx, q, query.Cardinalities(q, n)))
		obl := must(core.CompileObliviousCtx(ctx, res.Circuit))
		budget := 3*n + math.Pow(n, 1.5)
		lg := math.Log2(float64(obl.C.Size()))
		tb.Row(n, obl.C.Size(), obl.C.Depth(), float64(obl.C.Size())/budget,
			float64(obl.C.Depth())/(lg*lg))
		xs = append(xs, budget)
		ys = append(ys, float64(obl.C.Size()))
	}
	fmt.Print(tb)
	k, _ := stats.FitPowerLaw(xs, ys)
	fmt.Printf("fitted size exponent vs N+DAPB: %.3f (paper: 1 up to polylog)\n", k)

	// Strict §4.1 model: literal Boolean circuits by bit-blasting.
	fmt.Println("\nstrict bit-level circuits (width 64):")
	bt := stats.NewTable("N", "word gates", "bit gates", "bit depth")
	for _, n := range []float64{3, 4} {
		res := must(panda.CompileFCQCtx(ctx, q, query.Cardinalities(q, n)))
		obl := must(core.CompileObliviousCtx(ctx, res.Circuit))
		blasted := must(bitblast.BlastCtx(ctx, obl.C, 64))
		bt.Row(n, obl.C.Size(), blasted.C.Size(), blasted.C.Depth())
	}
	fmt.Print(bt)
}

func e5(context.Context) {
	tb := stats.NewTable("M=N'", "word gates", "depth", "gates/(M+N')")
	var xs, ys []float64
	for _, m := range []int{64, 256, 1024, 4096} {
		c := boolcircuit.New()
		r := opcircuits.NewInput(c, []string{"A", "B"}, m)
		s := opcircuits.NewInput(c, []string{"B", "C"}, m)
		opcircuits.PKJoin(c, r, s)
		tb.Row(m, c.Size(), c.Depth(), float64(c.Size())/float64(2*m))
		xs = append(xs, float64(2*m))
		ys = append(ys, float64(c.Size()))
	}
	fmt.Print(tb)
	k, _ := stats.FitPowerLaw(xs, ys)
	fmt.Printf("fitted size exponent: %.3f (paper: Õ(M+N'), exponent 1 up to polylog)\n", k)
	// Worked example of Figure 3 is reproduced byte-exactly in
	// internal/opcircuits TestPKJoinPaperExample.
	fmt.Println("Figure 3 worked example: see TestPKJoinPaperExample (byte-exact).")
}

func e6(context.Context) {
	const m, nprime = 64, 512
	tb := stats.NewTable("deg bound N", "word gates", "depth", "gates/(MN+N')", "gates/(M·N') naive")
	for _, deg := range []int{2, 4, 8, 16, 32} {
		c := boolcircuit.New()
		r := opcircuits.NewInput(c, []string{"A", "B"}, m)
		s := opcircuits.NewInput(c, []string{"B", "C"}, nprime)
		opcircuits.DegJoin(c, r, s, deg)
		tb.Row(deg, c.Size(), c.Depth(),
			float64(c.Size())/float64(m*deg+nprime),
			float64(c.Size())/float64(m*nprime))
	}
	fmt.Print(tb)
	fmt.Println("Figure 4 worked example: see TestDegJoinPaperExample (byte-exact).")
}

func e7(ctx context.Context) {
	q := query.Path3()
	const n = 256
	dcs := query.Cardinalities(q, n)
	plan := must(yannakakis.NewPlanCtx(ctx, q, dcs))
	cc := must(plan.CompileCountCtx(ctx))
	w, _ := plan.Width.Float64()
	fmt.Printf("plan: da-fhtw = %.2f bits; OUT-circuit: %d gates, cost %.6g\n",
		w, cc.Circuit.Size(), cc.Circuit.Cost())
	tb := stats.NewTable("OUT", "rel gates", "cost", "cost/(N+2^w+OUT)")
	var xs, ys []float64
	for _, out := range []float64{64, 256, 1024, 4096, 16384} {
		ec := must(plan.CompileEvalCtx(ctx, out))
		budget := 3*n + math.Exp2(w) + out
		tb.Row(out, ec.Circuit.Size(), ec.Circuit.Cost(), ec.Circuit.Cost()/budget)
		xs = append(xs, out)
		ys = append(ys, ec.Circuit.Cost())
	}
	fmt.Print(tb)
	k, _ := stats.FitPowerLaw(xs, ys)
	fmt.Printf("fitted cost exponent vs OUT: %.3f (paper: ≤ 1 once OUT dominates)\n", k)
}

func e8(ctx context.Context) {
	q := query.Triangle()
	res := must(panda.CompileFCQCtx(ctx, q, query.Cardinalities(q, 16)))
	obl := must(core.CompileObliviousCtx(ctx, res.Circuit))
	w := core.BrentSchedule(obl.C, 1)
	d := obl.C.Depth()
	fmt.Printf("circuit: W = %d gates, D = %d depth; Brent bound W/P + D\n", w, d)
	tb := stats.NewTable("P", "steps", "speedup", "W/P+D bound")
	for _, p := range []int{1, 4, 16, 64, 256, 1024, 4096, 1 << 20} {
		steps := core.BrentSchedule(obl.C, p)
		tb.Row(p, steps, float64(w)/float64(steps), w/p+d)
	}
	fmt.Print(tb)
}

func e9(ctx context.Context) {
	q := query.Triangle()
	tb := stats.NewTable("N", "naive cost (N^3)", "PANDA-C cost", "naive/PANDA-C")
	for _, n := range []float64{4, 16, 64, 256, 1024, 4096} {
		dcs := query.Cardinalities(q, n)
		naive, _ := must2(baseline.NaiveCircuit(q, dcs))
		res := must(panda.CompileFCQCtx(ctx, q, dcs))
		tb.Row(n, naive.Cost(), res.Circuit.Cost(), naive.Cost()/res.Circuit.Cost())
	}
	fmt.Print(tb)
	fmt.Println("PANDA-C wins from small N on; the gap grows as N^1.5/polylog.")
}

func e10(ctx context.Context) {
	q := query.Path2Projected()
	r := semiring.Annotate(workload.UniformBinary(1, 64, 16), func(relation.Tuple) int64 { return 1 })
	s := semiring.Annotate(workload.UniformBinary(2, 64, 16), func(relation.Tuple) int64 { return 1 })
	db := map[string]*relation.Relation{"R": r, "S": s}
	plain := query.Database{"R": r.Project("x", "y"), "S": s.Project("x", "y")}
	dcs := must(query.DeriveDC(q, plain))
	tb := stats.NewTable("semiring", "rel gates", "cost", "output tuples", "matches RAM")
	for _, sr := range []semiring.Semiring{
		semiring.SumProduct(), semiring.MinPlus(), semiring.MaxPlus(), semiring.BoolOrAnd(),
	} {
		want := must(semiring.EvaluateRAM(sr, q, db))
		ac := must(semiring.Compile(ctx, sr, q, dcs, float64(want.Len())))
		got := must(ac.Evaluate(ctx, db, true))
		ok := "yes"
		if !got.Equal(want) {
			ok = "NO"
		}
		tb.Row(sr.Name, ac.Circuit.Size(), ac.Circuit.Cost(), got.Len(), ok)
	}
	fmt.Print(tb)
}

func e11(ctx context.Context) {
	tb := stats.NewTable("query", "LOGDAPB/logN", "proof steps", "decomps", "witness checks")
	for _, e := range query.Catalog() {
		res := must(bound.LogDAPBCtx(ctx, e.Query, query.Cardinalities(e.Query, 256)))
		seq, delta, err := proofseq.BuildCtx(ctx, e.Query, res)
		if err != nil {
			log.Fatal(err)
		}
		decomps := 0
		for _, s := range seq {
			if s.Kind == proofseq.Decomp {
				decomps++
			}
		}
		lv, _ := res.LogValue.Float64()
		ok := "ok"
		if err := res.CheckWitness(e.Query); err != nil {
			ok = "FAIL"
		}
		if err := proofseq.Verify(delta, proofseq.Lambda(res.Target), seq); err != nil {
			ok = "FAIL"
		}
		tb.Row(e.Name, lv/8, len(seq), decomps, ok)
	}
	fmt.Print(tb)
}

func e12(ctx context.Context) {
	tb := stats.NewTable("query", "fhtw", "da-fhtw/logN", "da-subw/logN")
	for _, e := range []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path3", Query: query.Path3()},
		{Name: "star3", Query: query.Star3()},
		{Name: "cycle4", Query: query.Cycle4()},
		{Name: "path2_projected", Query: query.Path2Projected()},
		{Name: "path3_endpoints", Query: query.Path3Endpoints()},
	} {
		dcs := query.Cardinalities(e.Query, 256)
		f, _, err := ghd.FhtwCtx(ctx, e.Query)
		if err != nil {
			log.Fatal(err)
		}
		df, _, err := ghd.DAFhtwCtx(ctx, e.Query, dcs)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := ghd.DASubwCtx(ctx, e.Query, dcs, 16)
		if err != nil {
			log.Fatal(err)
		}
		ff, _ := f.Float64()
		dff, _ := df.Float64()
		dsf, _ := ds.Float64()
		tb.Row(e.Name, ff, dff/8, dsf/8)
	}
	fmt.Print(tb)
	fmt.Println("note cycle4: da-subw = 1.5 < da-fhtw = 2 — Marx's separation, reproduced.")
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		log.Fatal(err)
	}
	return a, b
}
