// Differential oracle: on every database that satisfies the DCs, every
// evaluation path returns the RAM answer (DESIGN.md "Differential
// oracle" lists the rows and cells). One table of rows on one seeded
// generator feeds five tests:
//
//   - TestOracle asserts the rows are not vacuous: every compiled row
//     answers non-empty on at least half its seeds, every non-Boolean
//     row holds two or more tuples on one, every Boolean row answers
//     true on one seed and false on one whose relations are all
//     non-empty, and every derived row keeps a seed with an empty
//     relation; `go test -run TestOracle -v .` logs each row's numbers;
//   - TestDifferentialCatalog runs every cell of each uniform row, and
//     TestDifferentialDerivedConstraints every cell of each derived row;
//   - TestDifferentialStoreRoundTrip persists each uniform plan with
//     store.PutPlan and runs the program it reloads;
//   - TestOptimizerPreservesStats holds the optimizer report of each
//     uniform plan to both compiles.
//
// Left out on purpose: a wire cell (a response carries only a row
// count, the server generates its own database, and the benchmark
// checks that count on every reply), and the bound-contract, truncation
// and bytes-differ equivalence checks, which are later slices.
package circuitql

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/engine"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/workload"
)

const oracleSeeds = 12

// derivedRows also run with per-seed derived constraints, one compile
// per (query, seed); cycle4 there is the benchmark's cold-compile shape.
var derivedRows = map[string]bool{"triangle": true, "path2": true, "path3": true, "cycle4": true}

type oracleRow struct {
	entry   string // catalog name, and the row's subtest name
	q       *Query
	n       int  // per-relation cardinality bound
	derived bool // per-seed derived DCs instead of uniform ones
	// osOnly, when set, is why a full query runs only the output-
	// sensitive pipeline.
	osOnly string
	// unplanted seeds follow the oracleSeeds planted ones, with no
	// witness planted: a Boolean row's false answers on databases whose
	// relations are all non-empty.
	unplanted int
}

func (r oracleRow) name() string {
	if r.derived {
		return r.entry + "/derived"
	}
	return r.entry + "/uniform"
}

// compiled reports whether the row runs the circuit cells.
func (r oracleRow) compiled() bool { return r.q.IsFull() && r.osOnly == "" }

func (r oracleRow) uniformDCs() DCSet { return UniformCardinalities(r.q, float64(r.n)) }

// oracleRows returns the table. n is small on purpose: oblivious circuit
// size grows polynomially in the bound, and star3's worst-case output
// is N³ (its word circuit at bound 6 already has 8.6M gates).
func oracleRows() []oracleRow {
	var rows []oracleRow
	for _, ent := range query.Catalog() {
		r := oracleRow{entry: ent.Name, q: ent.Query, n: 5}
		switch ent.Name {
		case "star3":
			r.n = 3
		case "bowtie":
			r.osOnly = "its PANDA-C compile (6 atoms, 5 variables) takes upward of 15 minutes of proof-sequence search"
		}
		if ent.Query.IsBoolean() {
			// The planted seeds are false only where a relation is
			// empty, which a circuit testing just that would pass.
			r.unplanted = 4
		}
		rows = append(rows, r)
		if derivedRows[ent.Name] {
			r.derived = true
			rows = append(rows, r)
		}
	}
	return rows
}

// oracleHalf returns the derived rows, or the uniform ones.
func oracleHalf(derived bool) []oracleRow {
	var rows []oracleRow
	for _, r := range oracleRows() {
		if r.derived == derived {
			rows = append(rows, r)
		}
	}
	return rows
}

// relDiff returns "" when got equals the RAM answer want, and both
// relations otherwise.
func relDiff(want, got *Relation) string {
	if got.Equal(want) {
		return ""
	}
	return fmt.Sprintf("RAM has %d rows %v, got %d rows %v", want.Len(), want, got.Len(), got)
}

// checkCell fails the test unless one cell answered seed s's RAM answer.
func checkCell(t *testing.T, s int, cell string, want, got *Relation, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("seed %d: %s: %v", s+1, cell, err)
	}
	if d := relDiff(want, got); d != "" {
		t.Errorf("seed %d: %s diverges: %s", s+1, cell, d)
	}
}

func TestOracle(t *testing.T) {
	for _, row := range oracleRows() {
		t.Run(row.name(), func(t *testing.T) {
			dbs, wants := oracleData(t, row)
			nonEmpty, maxOut, emptyRel, falseFull := 0, 0, 0, 0
			for s, db := range dbs {
				if hasEmptyRelation(db) {
					emptyRel++
				} else if wants[s].Len() == 0 {
					falseFull++
				}
				if wants[s].Len() > 0 {
					nonEmpty++
				}
				maxOut = max(maxOut, wants[s].Len())
			}
			t.Logf("%s: %d/%d seeds non-empty, max |Q(D)| = %d, %d seeds with an empty relation, %d empty answers on all-non-empty relations",
				row.name(), nonEmpty, len(dbs), maxOut, emptyRel, falseFull)
			if row.compiled() && 2*nonEmpty < len(dbs) {
				t.Errorf("RAM answer non-empty on %d of %d seeds, want at least half", nonEmpty, len(dbs))
			}
			if !row.q.IsBoolean() && maxOut < 2 {
				t.Errorf("largest RAM answer has %d tuples, want one with at least 2", maxOut)
			}
			if row.q.IsBoolean() && (nonEmpty == 0 || falseFull == 0) {
				t.Errorf("%d true seeds, %d false ones with every relation non-empty; want both", nonEmpty, falseFull)
			}
			if row.derived && emptyRel == 0 {
				t.Error("no seed has an empty relation, so Card = 0 is never compiled")
			}
		})
	}
}

// TestDifferentialCatalog runs every cell of each uniform row.
func TestDifferentialCatalog(t *testing.T) {
	for _, row := range oracleHalf(false) {
		t.Run(row.entry, func(t *testing.T) { oracleCells(t, row) })
	}
}

// TestDifferentialDerivedConstraints runs every cell of each derived
// row: one raw and one optimized compile per seed, on the DCs derived
// from that seed's database.
func TestDifferentialDerivedConstraints(t *testing.T) {
	for _, row := range oracleHalf(true) {
		t.Run(row.entry, func(t *testing.T) { oracleCells(t, row) })
	}
}

// oracleCells runs a row's cells on every seed.
func oracleCells(t *testing.T, row oracleRow) {
	ctx, q := context.Background(), row.q
	dbs, wants := oracleData(t, row)
	switch {
	case row.compiled():
		oracleCompiled(t, row, dbs, wants)
	case q.IsBoolean():
		bq, err := CompileBoolean(ctx, q, row.uniformDCs())
		if err != nil {
			t.Fatalf("compile boolean: %v", err)
		}
		for s, db := range dbs {
			got, err := bq.Decide(ctx, db)
			if err != nil || got != (wants[s].Len() > 0) {
				t.Errorf("seed %d: decision circuit says %v (err %v), RAM output has %d rows", s+1, got, err, wants[s].Len())
			}
		}
	default:
		os, err := OutputSensitive(ctx, q, row.uniformDCs())
		if err != nil {
			t.Fatalf("output-sensitive compile: %v", err)
		}
		for s, db := range dbs {
			got, err := os.Evaluate(ctx, db)
			checkCell(t, s, "output-sensitive", wants[s], got, err)
		}
	}
}

func hasEmptyRelation(db Database) bool {
	for _, r := range db {
		if r.Len() == 0 {
			return true
		}
	}
	return false
}

// oracleData generates a row's databases and RAM answers, one per seed.
func oracleData(t *testing.T, row oracleRow) ([]Database, []*Relation) {
	t.Helper()
	var dbs []Database
	var wants []*Relation
	for seed := int64(1); seed <= int64(oracleSeeds+row.unplanted); seed++ {
		db := workload.Random(row.q, seed, row.n)
		if seed <= oracleSeeds && !hasEmptyRelation(db) {
			// Two witnesses, so every row sees a multi-tuple answer:
			// one alone leaves loomis_whitney4's sparse ternary
			// relations at |Q(D)| = 1 on every seed.
			workload.PlantWitness(row.q, db, seed, row.n)
			workload.PlantWitness(row.q, db, -seed, row.n)
		}
		want, err := EvaluateRAM(context.Background(), row.q, db)
		if err != nil {
			t.Fatalf("seed %d: RAM: %v", seed, err)
		}
		dbs, wants = append(dbs, db), append(wants, want)
	}
	return dbs, wants
}

// compilePair compiles q under dcs raw (NoOpt) and optimized.
func compilePair(q *Query, dcs DCSet) (raw, opt *CompiledQuery, err error) {
	ctx := context.Background()
	if raw, err = CompileOpts(ctx, q, dcs, CompileOptions{NoOpt: true}); err != nil {
		return nil, nil, fmt.Errorf("compile (raw): %w", err)
	}
	if opt, err = CompileOpts(ctx, q, dcs, CompileOptions{}); err != nil {
		return nil, nil, fmt.Errorf("compile (opt): %w", err)
	}
	return raw, opt, nil
}

var uniformPlanMemo struct {
	sync.Mutex
	m map[string][2]*CompiledQuery
}

// uniformPlans returns a uniform row's raw and optimized plans, compiled
// once per test binary: the catalog cells and the optimizer-report
// checks share them.
func uniformPlans(t *testing.T, row oracleRow) (raw, opt *CompiledQuery) {
	t.Helper()
	uniformPlanMemo.Lock()
	defer uniformPlanMemo.Unlock()
	if p, ok := uniformPlanMemo.m[row.entry]; ok {
		return p[0], p[1]
	}
	raw, opt, err := compilePair(row.q, row.uniformDCs())
	if err != nil {
		t.Fatal(err)
	}
	if uniformPlanMemo.m == nil {
		uniformPlanMemo.m = map[string][2]*CompiledQuery{}
	}
	uniformPlanMemo.m[row.entry] = [2]*CompiledQuery{raw, opt}
	return raw, opt
}

// oracleCompiled runs every cell of a compiled row. A uniform row has
// one plan for all seeds; a derived row has one per seed.
func oracleCompiled(t *testing.T, row oracleRow, dbs []Database, wants []*Relation) {
	ctx, q := context.Background(), row.q
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Store: st})
	defer eng.Close()
	served := map[Fingerprint][]int{} // plan → the seeds it answered

	type plan struct {
		dcs      DCSet
		raw, opt *CompiledQuery
		seeds    []int
	}
	var plans []plan
	if row.derived {
		for s, db := range dbs {
			dcs, err := DeriveConstraints(q, db)
			if err != nil {
				t.Fatalf("seed %d: derive: %v", s+1, err)
			}
			raw, opt, err := compilePair(q, dcs)
			if err != nil {
				t.Fatalf("seed %d: %v", s+1, err)
			}
			plans = append(plans, plan{dcs, raw, opt, []int{s}})
		}
	} else {
		p := plan{dcs: row.uniformDCs()}
		p.raw, p.opt = uniformPlans(t, row)
		for s := range dbs {
			p.seeds = append(p.seeds, s)
		}
		plans = append(plans, p)
	}

	for _, p := range plans {
		raw, opt := p.raw, p.opt
		// The artifact cell: the optimized plan, compiled on the row's
		// own query rather than its canonical one, written as a plan file
		// and loaded back.
		art := roundTrip(t, opt)

		for _, s := range p.seeds {
			db, want := dbs[s], wants[s]
			got, err := raw.EvaluateRelational(ctx, db, true)
			checkCell(t, s, "relational", want, got, err)
			got, err = opt.EvaluateRelational(ctx, db, true)
			checkCell(t, s, "opt-relational", want, got, err)
			// The interpreter cells call core's word-circuit interpreter:
			// Evaluate runs the vm, and the matrix keeps one evaluator
			// that does not.
			got, err = raw.inner.EvaluateObliviousCtx(ctx, db)
			checkCell(t, s, "interpreter", want, got, err)
			got, err = opt.inner.EvaluateObliviousCtx(ctx, db)
			checkCell(t, s, "opt-interpreter", want, got, err)
			got, err = evalOne(ctx, raw, db)
			checkCell(t, s, "vm", want, got, err)
			got, err = evalOne(ctx, opt, db)
			checkCell(t, s, "opt-vm", want, got, err)
			got, err = art.Evaluate(ctx, db)
			checkCell(t, s, "artifact", want, got, err)

			// The engine's first serve of a plan misses; a repeat hits.
			first := eng.Serve(ctx, q, p.dcs, db)
			checkCell(t, s, "engine", want, first.Output, first.Err)
			if before := served[first.Fingerprint] != nil; first.CacheHit != before {
				t.Errorf("seed %d: engine CacheHit %v, plan served before: %v", s+1, first.CacheHit, before)
			}
			served[first.Fingerprint] = append(served[first.Fingerprint], s)
			again := eng.Serve(ctx, q, p.dcs, db)
			checkCell(t, s, "engine repeat", want, again.Output, again.Err)
			if !again.CacheHit || again.Tier != engine.TierVM {
				t.Errorf("seed %d: engine repeat: CacheHit %v, tier %q; want a vm hit", s+1, again.CacheHit, again.Tier)
			}
		}

		if len(p.seeds) > 1 {
			outs, err := opt.EvalBatch(ctx, dbs)
			if err != nil {
				t.Fatalf("vm batch over %d seeds: %v", len(dbs), err)
			}
			for s, out := range outs {
				checkCell(t, s, "opt-vm batch lane", wants[s], out, nil)
			}
		}
	}
	// Shutdown drains the engine's write-back of the plans it compiled.
	if err := eng.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	storeCell(t, dir, served, dbs)
}

// evalOne runs db through cq's batch path as a batch of one.
func evalOne(ctx context.Context, cq *CompiledQuery, db Database) (*Relation, error) {
	outs, err := cq.EvalBatch(ctx, []Database{db})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// storeCell reloads every plan the engine persisted through a second
// store handle on dir, as a restarted process would. The program in the
// file must be the one a compile of the plan's canonical pair builds,
// encoding for encoding, and running it must answer RAM on that pair.
// The file holds no circuit, so there is no interpreter cell here.
func storeCell(t *testing.T, dir string, served map[Fingerprint][]int, dbs []Database) {
	t.Helper()
	ctx := context.Background()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	for fp, seeds := range served {
		a, err := st.GetPlan(fp)
		if err != nil {
			t.Fatalf("reload %s: %v", fp.Short(), err)
		}
		warm, canon, err := a.Compiled()
		if err != nil || canon.FP != fp {
			t.Fatalf("reassemble %s: %v (canonical pair %v)", fp.Short(), err, canon)
		}
		fresh, err := core.CompileQueryCtx(ctx, canon.Query, canon.DCs)
		if err != nil {
			t.Fatalf("compile %s: %v", fp.Short(), err)
		}
		if !bytes.Equal(warm.Prog.Append(nil), fresh.Prog.Append(nil)) {
			t.Fatalf("%s: the stored program is not the one its pair compiles to", fp.Short())
		}
		reloaded := &CompiledQuery{inner: warm}
		for _, s := range seeds {
			want, err := EvaluateRAM(ctx, canon.Query, dbs[s])
			if err != nil {
				t.Fatalf("seed %d: RAM on the canonical query: %v", s+1, err)
			}
			got, err := reloaded.Evaluate(ctx, dbs[s])
			checkCell(t, s, "store-vm", want, got, err)
		}
	}
}

// TestDifferentialStoreRoundTrip persists each uniform row's plan with
// store.FromCompiled and PutPlan, the writer the engine's write-back
// does not exercise on its own: the plan is compiled on its canonical
// pair outside any engine, and storeCell reloads it through a second
// store handle. The reloaded plan must answer RAM on every seed, and so
// must the never-persisted compile.
func TestDifferentialStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, row := range oracleHalf(false) {
		if !row.compiled() {
			continue
		}
		t.Run(row.entry, func(t *testing.T) {
			dbs, _ := oracleData(t, row)
			canon, err := query.Canonicalize(row.q, row.uniformDCs())
			if err != nil {
				t.Fatalf("canonicalize: %v", err)
			}
			fresh, err := core.CompileQueryCtx(ctx, canon.Query, canon.DCs)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutPlan(store.FromCompiled(canon, fresh)); err != nil {
				t.Fatalf("persist: %v", err)
			}
			seeds := make([]int, len(dbs))
			for s, db := range dbs {
				seeds[s] = s
				want, err := EvaluateRAM(ctx, canon.Query, db)
				if err != nil {
					t.Fatalf("seed %d: RAM on the canonical query: %v", s+1, err)
				}
				got, err := fresh.EvaluateObliviousCtx(ctx, db)
				checkCell(t, s, "fresh-interpreter", want, got, err)
			}
			storeCell(t, dir, map[Fingerprint][]int{canon.FP: seeds}, dbs)
		})
	}
}

// TestOptimizerPreservesStats holds the optimizer report of each uniform
// row's plan to both compiles (checkOptReport).
func TestOptimizerPreservesStats(t *testing.T) {
	for _, row := range oracleHalf(false) {
		if !row.compiled() {
			continue
		}
		t.Run(row.entry, func(t *testing.T) {
			raw, opt := uniformPlans(t, row)
			checkOptReport(t, raw, opt)
		})
	}
}

// checkOptReport holds the optimizer report to both compiles: its sizes
// match the circuits, and optimization never grows a layer.
func checkOptReport(t *testing.T, raw, opt *CompiledQuery) {
	t.Helper()
	rep := opt.OptimizerReport()
	if rep == nil || raw.OptimizerReport() != nil {
		t.Fatalf("optimizer reports: optimized %v, NoOpt %v; want one on the optimized compile only", rep, raw.OptimizerReport())
	}
	st := opt.Stats()
	if rep.RelGatesAfter != st.RelationalGates || rep.WordGatesAfter != st.Gates {
		t.Errorf("report after-sizes (%d rel, %d word) disagree with stats (%d, %d)",
			rep.RelGatesAfter, rep.WordGatesAfter, st.RelationalGates, st.Gates)
	}
	if rep.RelGatesBefore != raw.Stats().RelationalGates {
		t.Errorf("report rel before-size %d disagrees with raw compile %d",
			rep.RelGatesBefore, raw.Stats().RelationalGates)
	}
	// WordGatesBefore counts gates built while lowering the rel-optimized
	// circuit, folded but not swept: below the raw pipeline's count.
	if rep.WordGatesBefore >= raw.Stats().Gates {
		t.Errorf("report word before-size %d is not below raw compile %d",
			rep.WordGatesBefore, raw.Stats().Gates)
	}
	if rep.WordGatesAfter > rep.WordGatesBefore || rep.RelGatesAfter > rep.RelGatesBefore {
		t.Errorf("optimizer grew the circuit: %+v", rep)
	}
}
