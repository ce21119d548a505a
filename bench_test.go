// Ablation, stage and serving benchmarks: sorting networks and the
// segmented scan against their naive alternatives, the compile's stages,
// the vm against the interpreter and the served tiers. The paper's own
// claims (E1-E12) are asserted by TestPaperClaims (paper_claims_test.go).
package circuitql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"circuitql/internal/baseline"
	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/obs"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/scan"
	"circuitql/internal/sortnet"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

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
		dbs := make([]Database, 64)
		for i := range dbs {
			dbs[i] = db
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cq.EvalBatch(ctx, dbs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/req")
	})
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
		prog := compiled.Prog
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
