// Benchmarks regenerating every experiment of DESIGN.md (E1-E12): one
// benchmark per paper figure/theorem, each reporting the measured
// quantities (circuit cost/size/depth, fitted growth exponents,
// crossovers) as benchmark metrics. cmd/benchtab runs wider sweeps of
// the same experiments and prints the tables recorded in EXPERIMENTS.md.
package circuitql

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"circuitql/internal/baseline"
	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/ghd"
	"circuitql/internal/obs"
	"circuitql/internal/opcircuits"
	"circuitql/internal/panda"
	"circuitql/internal/proofseq"
	"circuitql/internal/query"
	"circuitql/internal/scan"
	"circuitql/internal/semiring"
	"circuitql/internal/sortnet"
	"circuitql/internal/stats"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
	"circuitql/internal/yannakakis"

	boundpkg "circuitql/internal/bound"
)

// BenchmarkE1Figure1Triangle rebuilds the hand-designed heavy/light
// relational circuit of Figure 1 across N and reports its cost exponent
// (theory: 1.5).
func BenchmarkE1Figure1Triangle(b *testing.B) {
	var xs, ys []float64
	for _, n := range []float64{256, 1024, 4096, 16384} {
		n := n
		b.Run(fmt.Sprintf("N=%g", n), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				c, _ := baseline.HeavyLightTriangle(n)
				cost = c.Cost()
			}
			b.ReportMetric(cost, "cost")
		})
		c, _ := baseline.HeavyLightTriangle(n)
		xs = append(xs, n)
		ys = append(ys, c.Cost())
	}
	k, _ := stats.FitPowerLaw(xs, ys)
	b.ReportMetric(k, "cost-exponent")
}

// BenchmarkE2PandaCTriangle compiles the PANDA-C triangle circuit of
// Figure 2 / Example 2 and reports relational gate count (Õ(1)), cost
// exponent (theory 1.5), and truncation restarts.
func BenchmarkE2PandaCTriangle(b *testing.B) {
	q := query.Triangle()
	var xs, ys []float64
	var gates, restarts int
	for _, n := range []float64{64, 256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("N=%g", n), func(b *testing.B) {
			var res *panda.CompileResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Circuit.Size()), "rel-gates")
			b.ReportMetric(res.Circuit.Cost(), "cost")
		})
		res, err := panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, n))
		if err != nil {
			b.Fatal(err)
		}
		xs = append(xs, n)
		ys = append(ys, res.Circuit.Cost())
		gates, restarts = res.Circuit.Size(), res.Restarts
	}
	k, _ := stats.FitPowerLaw(xs, ys)
	b.ReportMetric(k, "cost-exponent")
	b.ReportMetric(float64(gates), "rel-gates-largestN")
	b.ReportMetric(float64(restarts), "restarts")
}

// BenchmarkE3Theorem3Suite compiles PANDA-C for the whole suite and
// reports cost/DAPB (theory: Õ(1), i.e. polylog).
func BenchmarkE3Theorem3Suite(b *testing.B) {
	suite := []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path3", Query: query.Path3()},
		{Name: "star3", Query: query.Star3()},
		{Name: "cycle4", Query: query.Cycle4()},
		{Name: "loomis_whitney4", Query: query.LoomisWhitney4()},
	}
	const n = 1024
	for _, e := range suite {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var res *panda.CompileResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = panda.CompileFCQCtx(context.Background(), e.Query, query.Cardinalities(e.Query, n))
				if err != nil {
					b.Fatal(err)
				}
			}
			dapb := res.Bound.Value()
			b.ReportMetric(res.Circuit.Cost()/(float64(len(e.Query.Atoms))*n+dapb), "cost/(N+DAPB)")
			b.ReportMetric(float64(res.Circuit.Size()), "rel-gates")
		})
	}
}

// BenchmarkE4Theorem4Oblivious lowers the triangle circuit to word
// gates across N and reports the size exponent against N + DAPB and the
// depth growth (theory: size Õ(N+DAPB) = Õ(N^1.5), depth polylog).
func BenchmarkE4Theorem4Oblivious(b *testing.B) {
	q := query.Triangle()
	var xs, ys, depths []float64
	for _, n := range []float64{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("N=%g", n), func(b *testing.B) {
			var obl *core.ObliviousCircuit
			for i := 0; i < b.N; i++ {
				res, err := panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, n))
				if err != nil {
					b.Fatal(err)
				}
				obl, err = core.CompileObliviousCtx(context.Background(), res.Circuit)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(obl.C.Size()), "word-gates")
			b.ReportMetric(float64(obl.C.Depth()), "depth")
		})
		res, err := panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, n))
		if err != nil {
			b.Fatal(err)
		}
		obl, err := core.CompileObliviousCtx(context.Background(), res.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		xs = append(xs, 3*n+math.Pow(n, 1.5))
		ys = append(ys, float64(obl.C.Size()))
		depths = append(depths, float64(obl.C.Depth()))
	}
	k, _ := stats.FitPowerLaw(xs, ys)
	b.ReportMetric(k, "size-exponent-vs-(N+DAPB)")
	// Depth should be polylog: compare growth against log²N growth.
	dk, _ := stats.FitPowerLaw(xs, depths)
	b.ReportMetric(dk, "depth-exponent")
}

// BenchmarkE5PKJoin builds the primary-key join circuit (Figure 3 /
// Algorithm 6) across sizes and reports the size exponent (theory: Õ(1)
// depth, Õ(M+N') size, i.e. exponent ≈ 1 plus log factors).
func BenchmarkE5PKJoin(b *testing.B) {
	var xs, ys []float64
	for _, m := range []int{64, 256, 1024} {
		m := m
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var c *boolcircuit.Circuit
			for i := 0; i < b.N; i++ {
				c = boolcircuit.New()
				r := opcircuits.NewInput(c, []string{"A", "B"}, m)
				s := opcircuits.NewInput(c, []string{"B", "C"}, m)
				opcircuits.PKJoin(c, r, s)
			}
			b.ReportMetric(float64(c.Size()), "word-gates")
			b.ReportMetric(float64(c.Depth()), "depth")
		})
		c := boolcircuit.New()
		r := opcircuits.NewInput(c, []string{"A", "B"}, m)
		s := opcircuits.NewInput(c, []string{"B", "C"}, m)
		opcircuits.PKJoin(c, r, s)
		xs = append(xs, float64(2*m))
		ys = append(ys, float64(c.Size()))
	}
	k, _ := stats.FitPowerLaw(xs, ys)
	b.ReportMetric(k, "size-exponent")
}

// BenchmarkE6DegreeBoundedJoin builds the degree-bounded join circuit
// (Figure 4 / Algorithm 7) and reports size against the Õ(MN + N')
// budget — and against the naive M·N' a pairwise circuit would need.
func BenchmarkE6DegreeBoundedJoin(b *testing.B) {
	const m, nprime = 64, 512
	for _, deg := range []int{2, 8, 32} {
		deg := deg
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			var c *boolcircuit.Circuit
			for i := 0; i < b.N; i++ {
				c = boolcircuit.New()
				r := opcircuits.NewInput(c, []string{"A", "B"}, m)
				s := opcircuits.NewInput(c, []string{"B", "C"}, nprime)
				opcircuits.DegJoin(c, r, s, deg)
			}
			b.ReportMetric(float64(c.Size()), "word-gates")
			b.ReportMetric(float64(c.Size())/float64(m*deg+nprime), "gates/(MN+N')")
			b.ReportMetric(float64(c.Size())/float64(m*nprime), "gates/naiveMN'")
		})
	}
}

// BenchmarkE7OutputSensitive builds Theorem 5's two circuit families and
// reports the OUT-scaling of the evaluation circuit at fixed N.
func BenchmarkE7OutputSensitive(b *testing.B) {
	q := query.Path3()
	const n = 256
	dcs := query.Cardinalities(q, n)
	plan, err := yannakakis.NewPlanCtx(context.Background(), q, dcs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("count-circuit", func(b *testing.B) {
		var cc *yannakakis.CountCircuit
		for i := 0; i < b.N; i++ {
			cc, err = plan.CompileCountCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cc.Circuit.Cost(), "cost")
	})
	var xs, ys []float64
	for _, out := range []float64{64, 256, 1024, 4096} {
		out := out
		b.Run(fmt.Sprintf("eval-OUT=%g", out), func(b *testing.B) {
			var ec *yannakakis.EvalCircuit
			for i := 0; i < b.N; i++ {
				ec, err = plan.CompileEvalCtx(context.Background(), out)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ec.Circuit.Cost(), "cost")
		})
		ec, err := plan.CompileEvalCtx(context.Background(), out)
		if err != nil {
			b.Fatal(err)
		}
		xs = append(xs, out)
		ys = append(ys, ec.Circuit.Cost())
	}
	k, _ := stats.FitPowerLaw(xs, ys)
	b.ReportMetric(k, "cost-exponent-vs-OUT")
}

// BenchmarkE8BrentSpeedup schedules the oblivious triangle circuit on P
// PRAM processors (Brent's theorem: steps ≤ W/P + D).
func BenchmarkE8BrentSpeedup(b *testing.B) {
	q := query.Triangle()
	res, err := panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, 16))
	if err != nil {
		b.Fatal(err)
	}
	obl, err := core.CompileObliviousCtx(context.Background(), res.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	w := core.BrentSchedule(obl.C, 1)
	for _, p := range []int{1, 16, 256, 4096, 1 << 20} {
		p := p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				steps = core.BrentSchedule(obl.C, p)
			}
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(float64(w)/float64(steps), "speedup")
		})
	}
	b.ReportMetric(float64(obl.C.Depth()), "depth=min-steps")
}

// BenchmarkE9NaiveCrossover compares the naive Õ(N^m) circuit against
// PANDA-C across N and reports the cost ratio (who wins, by how much).
func BenchmarkE9NaiveCrossover(b *testing.B) {
	q := query.Triangle()
	for _, n := range []float64{4, 16, 64, 256, 1024} {
		n := n
		b.Run(fmt.Sprintf("N=%g", n), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				dcs := query.Cardinalities(q, n)
				naive, _, err := baseline.NaiveCircuit(q, dcs)
				if err != nil {
					b.Fatal(err)
				}
				res, err := panda.CompileFCQCtx(context.Background(), q, dcs)
				if err != nil {
					b.Fatal(err)
				}
				ratio = naive.Cost() / res.Circuit.Cost()
			}
			b.ReportMetric(ratio, "naive/panda-cost")
		})
	}
}

// BenchmarkE10Aggregates compiles and runs join-aggregate circuits over
// semirings (Section 7) and reports their cost relative to the plain
// query.
func BenchmarkE10Aggregates(b *testing.B) {
	q := query.Path2Projected()
	db := map[string]*Relation{
		"R": semiring.Annotate(workload.UniformBinary(1, 64, 16), func(Tuple) int64 { return 1 }),
		"S": semiring.Annotate(workload.UniformBinary(2, 64, 16), func(Tuple) int64 { return 1 }),
	}
	plain := Database{"R": db["R"].Project("x", "y"), "S": db["S"].Project("x", "y")}
	dcs, err := query.DeriveDC(q, plain)
	if err != nil {
		b.Fatal(err)
	}
	for _, sr := range []semiring.Semiring{semiring.SumProduct(), semiring.MinPlus()} {
		sr := sr
		b.Run(sr.Name, func(b *testing.B) {
			var ac *semiring.Circuit
			for i := 0; i < b.N; i++ {
				ac, err = semiring.Compile(context.Background(), sr, q, dcs, 4096)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ac.Circuit.Cost(), "cost")
			got, err := ac.Evaluate(context.Background(), db, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(got.Len()), "out-tuples")
		})
	}
}

// BenchmarkE11BoundsAndProofs measures the exact polymatroid-bound LP
// and the proof-sequence builder across the suite (Theorems 1-2).
func BenchmarkE11BoundsAndProofs(b *testing.B) {
	for _, e := range query.Catalog() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var seqLen int
			for i := 0; i < b.N; i++ {
				res, err := boundpkg.LogDAPBCtx(context.Background(), e.Query, query.Cardinalities(e.Query, 256))
				if err != nil {
					b.Fatal(err)
				}
				seq, _, err := proofseq.BuildCtx(context.Background(), e.Query, res)
				if err != nil {
					b.Fatal(err)
				}
				seqLen = len(seq)
			}
			b.ReportMetric(float64(seqLen), "proof-steps")
		})
	}
}

// BenchmarkE12Widths computes fhtw / da-fhtw / da-subw (Sections 6-7),
// including the fhtw-vs-subw separation on the 4-cycle.
func BenchmarkE12Widths(b *testing.B) {
	for _, e := range []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "cycle4", Query: query.Cycle4()},
		{Name: "path2_projected", Query: query.Path2Projected()},
	} {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			dcs := query.Cardinalities(e.Query, 256)
			var f, df, ds float64
			for i := 0; i < b.N; i++ {
				fr, _, err := ghd.FhtwCtx(context.Background(), e.Query)
				if err != nil {
					b.Fatal(err)
				}
				dfr, _, err := ghd.DAFhtwCtx(context.Background(), e.Query, dcs)
				if err != nil {
					b.Fatal(err)
				}
				dsr, err := ghd.DASubwCtx(context.Background(), e.Query, dcs, 12)
				if err != nil {
					b.Fatal(err)
				}
				f, _ = fr.Float64()
				df, _ = dfr.Float64()
				ds, _ = dsr.Float64()
			}
			b.ReportMetric(f, "fhtw")
			b.ReportMetric(df/8, "da-fhtw/logN")
			b.ReportMetric(ds/8, "da-subw/logN")
		})
	}
}

// BenchmarkAblationSegmentedScan compares the ⊕̄-segmented scan circuit
// against the naive per-pair quadratic alternative the paper warns about
// (Section 5.4's size-blowup discussion).
func BenchmarkAblationSegmentedScan(b *testing.B) {
	const n = 512
	b.Run("segmented-scan", func(b *testing.B) {
		var c *boolcircuit.Circuit
		for i := 0; i < b.N; i++ {
			c = boolcircuit.New()
			keys := make([][]int, n)
			vals := make([]int, n)
			for j := range keys {
				keys[j] = []int{c.Input()}
				vals[j] = c.Input()
			}
			scan.SegmentedScan(c, keys, vals, scan.Add)
		}
		b.ReportMetric(float64(c.Size()), "word-gates")
	})
	b.Run("naive-quadratic", func(b *testing.B) {
		var c *boolcircuit.Circuit
		for i := 0; i < b.N; i++ {
			c = boolcircuit.New()
			keys := make([]int, n)
			vals := make([]int, n)
			for j := range keys {
				keys[j] = c.Input()
				vals[j] = c.Input()
			}
			// out[j] = Σ_{i ≤ j, key_i = key_j} val_i: direct double loop.
			for j := 0; j < n; j++ {
				acc := vals[j]
				for i := 0; i < j; i++ {
					same := c.Eq(keys[i], keys[j])
					acc = c.Add(acc, c.Mux(same, vals[i], c.Const(0)))
				}
			}
		}
		b.ReportMetric(float64(c.Size()), "word-gates")
	})
}

// BenchmarkAblationHeavyLightVsPanda compares the constant-size
// hand-built Figure 1 circuit against the polylog-size generated Figure
// 2 circuit (both Θ(N^1.5) cost; the generated one pays a polylog
// factor).
func BenchmarkAblationHeavyLightVsPanda(b *testing.B) {
	q := query.Triangle()
	for _, n := range []float64{1024, 16384} {
		n := n
		b.Run(fmt.Sprintf("N=%g", n), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				hl, _ := baseline.HeavyLightTriangle(n)
				res, err := panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, n))
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Circuit.Cost() / hl.Cost()
			}
			b.ReportMetric(ratio, "panda/figure1-cost")
		})
	}
}

// BenchmarkAblationSortNetworks compares the two Batcher networks used
// by the ordering operator τ: odd-even mergesort (the default) vs the
// bitonic sorter.
func BenchmarkAblationSortNetworks(b *testing.B) {
	build := func(sorter func(*boolcircuit.Circuit, []boolcircuit.Slot, sortnet.Less) []boolcircuit.Slot, k int) int {
		c := boolcircuit.New()
		slots := make([]boolcircuit.Slot, k)
		for i := range slots {
			slots[i] = boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input(), c.Input()}}
		}
		sorter(c, slots, sortnet.AllColsLess(2))
		return c.Size()
	}
	for _, k := range []int{256, 1024} {
		k := k
		b.Run(fmt.Sprintf("odd-even/K=%d", k), func(b *testing.B) {
			var g int
			for i := 0; i < b.N; i++ {
				g = build(sortnet.SortOddEven, k)
			}
			b.ReportMetric(float64(g), "word-gates")
			b.ReportMetric(float64(sortnet.OddEvenComparatorCount(k)), "comparators")
		})
		b.Run(fmt.Sprintf("bitonic/K=%d", k), func(b *testing.B) {
			var g int
			for i := 0; i < b.N; i++ {
				g = build(sortnet.Sort, k)
			}
			b.ReportMetric(float64(g), "word-gates")
			b.ReportMetric(float64(sortnet.ComparatorCount(k)), "comparators")
		})
	}
}

// BenchmarkSecureCostModel prices the triangle circuit for MPC across
// word widths (free-XOR garbling, half-gates).
func BenchmarkSecureCostModel(b *testing.B) {
	q := query.Triangle()
	res, err := panda.CompileFCQCtx(context.Background(), q, query.Cardinalities(q, 16))
	if err != nil {
		b.Fatal(err)
	}
	obl, err := core.CompileObliviousCtx(context.Background(), res.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{16, 32, 64} {
		w := w
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			var bc boolcircuit.BitCost
			for i := 0; i < b.N; i++ {
				bc = obl.C.BitCostAt(w)
			}
			b.ReportMetric(float64(bc.NonLinear), "nonlinear-gates")
			b.ReportMetric(float64(bc.GarbledBytes(128))/(1<<20), "garbled-MiB")
		})
	}
}

// BenchmarkVMvsInterp pits single-request evaluation by the word-circuit
// interpreter (pack, gate-by-gate walk, decode) against the facade's
// Evaluate — validation, then the vm program at a batch of one — and
// against the vm program at batch 64, on the same query and database.
// Divide interp-single's ns/op by facade-evaluate's for what the vm buys
// one request, and by vm/batch=64's ns/req for what batching adds. The
// vm program is compiled with the plan, outside every timer here; it is
// part of Compile's cost (vmcompile-ns in BenchmarkCompileStages).
func BenchmarkVMvsInterp(b *testing.B) {
	ctx := context.Background()
	q := query.Triangle()
	const n = 12
	db := workload.ForQuery(q, 1, n)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		b.Fatal(err)
	}
	cq, err := Compile(context.Background(), q, dcs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interp-single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.inner.EvaluateObliviousCtx(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("facade-evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cq.Evaluate(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm/batch=64", func(b *testing.B) {
		prog, err := cq.CompileVM(ctx)
		if err != nil {
			b.Fatal(err)
		}
		dbs := make([]Database, 64)
		for i := range dbs {
			dbs[i] = db
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.EvalBatch(ctx, dbs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/req")
	})
}

// BenchmarkObliviousEvaluation measures actual circuit evaluation
// throughput (the simulated "hardware" run).
func BenchmarkObliviousEvaluation(b *testing.B) {
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 3, 16)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		b.Fatal(err)
	}
	cq, err := Compile(context.Background(), q, dcs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Evaluate(context.Background(), db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizedVsRaw measures what the internal/opt passes buy at
// evaluation time: the same query and database run through the raw
// (paper-verbatim) oblivious circuit and through the optimized one.
// Reported word-gate counts make the size reduction visible next to the
// ns/op ratio.
func BenchmarkOptimizedVsRaw(b *testing.B) {
	for _, tc := range []struct {
		name string
		q    *query.Query
	}{
		{"triangle", query.Triangle()},
		{"loomis_whitney4", query.LoomisWhitney4()},
	} {
		const n = 8
		dcs := query.Cardinalities(tc.q, n)
		db := workload.ForQuery(tc.q, 1, n)
		for _, mode := range []struct {
			name  string
			noOpt bool
		}{
			{"raw", true},
			{"optimized", false},
		} {
			cq, err := CompileOpts(context.Background(), tc.q, dcs, CompileOptions{NoOpt: mode.noOpt})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				b.ReportMetric(float64(cq.Stats().Gates), "word-gates")
				for i := 0; i < b.N; i++ {
					if _, err := cq.Evaluate(context.Background(), db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompileStages times the engine's own compile entry point,
// core.CompileQueryCtx, on the two templates the repo benchmark's cold
// path is made of, under uniform cardinalities, on the hot-eval shape
// (triangle at 16 tuples, constraints derived from the data) and on the
// cold-compile shape (cycle4 at 8 tuples, derived constraints plus the
// salt "R <= 40", canonicalized as the engine does). ns/op is the
// compile's wall time, the plan's vm program included, and B/op and
// allocs/op (-benchmem) are its allocations. The word-level stages every
// served cold compile pays after PANDA-C are read off the compile's own
// spans beside it: the lowering through the rewriting builder
// (lowerfold-ns), the sweep of the gates folding left unused (sweep-ns)
// and the vm compile (vmcompile-ns), which runs beside the sweep, so the
// two overlap in ns/op. lp-ns is the exact bound LP of the same call,
// from its lp-solve span. gates is the served circuit's size (a change
// here means the optimizer's output moved, not just its speed), and
// vm-instructions and vm-levels are what the vm compile made of those
// gates — its yield beside its cost.
func BenchmarkCompileStages(b *testing.B) {
	ctx := context.Background()
	derived, err := query.DeriveDC(query.Triangle(), workload.ForQuery(query.Triangle(), 1, 16))
	if err != nil {
		b.Fatal(err)
	}
	cold, err := query.DeriveDC(query.Cycle4(), workload.ForQuery(query.Cycle4(), 1, 8))
	if err != nil {
		b.Fatal(err)
	}
	salt, err := query.ParseDC(query.Cycle4(), "R <= 40")
	if err != nil {
		b.Fatal(err)
	}
	coldCanon, err := query.Canonicalize(query.Cycle4(), append(cold, salt...))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		dcs  query.DCSet
	}{
		{"triangle", query.Triangle(), query.Cardinalities(query.Triangle(), 12)},
		{"cycle4", query.Cycle4(), query.Cardinalities(query.Cycle4(), 8)},
		{"triangle16-derived", query.Triangle(), derived},
		{"cycle4-8-cold", coldCanon.Query, coldCanon.DCs},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var wall, lpSolve, lowerFold, sweep, vmCompile time.Duration
			var prog *vm.Program
			gates := 0
			for i := 0; i < b.N; i++ {
				tracer := obs.NewTracer(1)
				t0 := time.Now()
				compiled, err := core.CompileQueryCtx(obs.WithTracer(ctx, tracer), tc.q, tc.dcs)
				wall += time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				for _, stage := range tracer.Last(1)[0].Children() {
					switch stage.Name {
					case obs.StageLPSolve:
						lpSolve += stage.Duration()
					case obs.StageBoolCirc:
						lowerFold += stage.Duration()
					case obs.StageOptimize:
						sweep += stage.Duration()
					case obs.StageVMComp:
						vmCompile += stage.Duration()
					}
				}
				prog, gates = compiled.Prog, compiled.Obliv.C.Size()
			}
			perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
			b.ReportMetric(perOp(wall), "ns/op")
			b.ReportMetric(perOp(lpSolve), "lp-ns")
			b.ReportMetric(perOp(lowerFold), "lowerfold-ns")
			b.ReportMetric(perOp(sweep), "sweep-ns")
			b.ReportMetric(perOp(vmCompile), "vmcompile-ns")
			b.ReportMetric(float64(gates), "gates")
			b.ReportMetric(float64(prog.Instructions()), "vm-instructions")
			b.ReportMetric(float64(prog.Levels()), "vm-levels")
		})
	}
}

// BenchmarkServedTiers sizes the engine's tier ladder on the shapes the
// store and the ledger serve (catalog query · tuples per relation,
// derived constraints). Per shape: the vm tier as the engine runs it
// (pack, a batch of one, decode), the RAM tier, the relational circuit
// — the facade's reference layer, not an engine tier: slower than RAM
// and no more oblivious — and a compile with and without the optimizer,
// with the word gates each leaves for every later evaluation. The
// ladder is ordered by obliviousness, not by speed: RAM is the fastest
// tier on every shape.
func BenchmarkServedTiers(b *testing.B) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		q    *query.Query
		n    int
	}{
		{"triangle16", query.Triangle(), 16},
		{"cycle4x8", query.Cycle4(), 8},
		{"path3x8", query.Path3(), 8},
	} {
		db := workload.ForQuery(tc.q, 1, tc.n)
		dcs, err := query.DeriveDC(tc.q, db)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name  string
			noOpt bool
		}{{"compile-opt", false}, {"compile-noopt", true}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				var compiled *core.Compiled
				for i := 0; i < b.N; i++ {
					if compiled, err = core.CompileQueryOptsCtx(ctx, tc.q, dcs, core.CompileOptions{NoOpt: mode.noOpt}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(compiled.Obliv.C.Size()), "word-gates")
			})
		}
		compiled, err := core.CompileQueryCtx(ctx, tc.q, dcs)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := vm.Compile(ctx, compiled.Obliv.C)
		if err != nil {
			b.Fatal(err)
		}
		for _, tier := range []struct {
			name string
			run  func() (*Relation, error)
		}{
			{"vm", func() (*Relation, error) {
				in, err := compiled.PackOblivious(db)
				if err != nil {
					return nil, err
				}
				outs, err := prog.EvalBatch(ctx, [][]vm.Word{in})
				if err != nil {
					return nil, err
				}
				return compiled.DecodeOblivious(outs[0])
			}},
			{"relational", func() (*Relation, error) { return compiled.EvaluateRelationalCtx(ctx, db, false) }},
			{"ram", func() (*Relation, error) { return query.EvaluateCtx(ctx, tc.q, db) }},
		} {
			b.Run(tc.name+"/"+tier.name, func(b *testing.B) {
				rows := 0
				for i := 0; i < b.N; i++ {
					out, err := tier.run()
					if err != nil {
						b.Fatal(err)
					}
					rows = out.Len()
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}
