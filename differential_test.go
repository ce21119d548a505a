// Differential-equivalence harness: every catalog query, on several
// seeded random databases, must return the same output relation from
// every evaluation tier — the reference RAM evaluator, the relational
// circuit, the oblivious word-level circuit, and both circuits after the
// internal/opt optimizer passes. This is the gate behind the optimizer:
// a rewrite that changes any answer on any tier fails here.
package circuitql

import (
	"context"
	"sync"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/testutil"
	"circuitql/internal/vm"
)

const diffSeeds = 3

// diffN returns the per-relation cardinality bound used for a query's
// databases and compiles. Small on purpose: oblivious circuit size grows
// polynomially in the bound (star3's worst-case output is N³, so its
// word circuit at bound 6 already has 8.6M gates), and this suite runs
// on every `go test ./...`.
func diffN(name string) int {
	if name == "star3" {
		return 3
	}
	return 5
}

// bowtie's PANDA-C compile (6 atoms, 5 variables) takes upward of 15
// minutes of proof-sequence search on one core, so the worst-case-
// optimal tiers are out of reach for a tier-1 test; its differential
// coverage comes from the output-sensitive pipeline instead, which only
// needs a GHD plan.
var diffViaOutputSensitive = map[string]bool{"bowtie": true}

// diffCompiled caches raw and optimized compiles per catalog query so
// the harness tests share one compile each instead of re-paying the
// most expensive step per test.
var diffCompiled = struct {
	sync.Mutex
	m map[string]*CompiledQuery
}{m: map[string]*CompiledQuery{}}

func diffCompile(t *testing.T, name string, q *Query, noOpt bool) *CompiledQuery {
	t.Helper()
	key := name
	if noOpt {
		key += "/raw"
	}
	diffCompiled.Lock()
	defer diffCompiled.Unlock()
	if cq, ok := diffCompiled.m[key]; ok {
		return cq
	}
	dcs := UniformCardinalities(q, float64(diffN(name)))
	cq, err := CompileOpts(context.Background(), q, dcs, CompileOptions{NoOpt: noOpt})
	if err != nil {
		t.Fatalf("%s: compile (noOpt=%v): %v", name, noOpt, err)
	}
	diffCompiled.m[key] = cq
	return cq
}

// TestDifferentialCatalog cross-checks all tiers on every catalog query.
//
// Full queries compile once per query (raw and optimized) against the
// uniform cardinality bound, then evaluate on each seeded database:
// RAM, relational (bound-checked), oblivious, vectorized (vm),
// optimized relational, optimized oblivious, and optimized vectorized —
// seven answers that must agree exactly, plus one multi-database vm
// batch over all seeds whose lanes must match lane-for-lane.
// Queries marked diffViaOutputSensitive and non-full queries run the
// output-sensitive pipeline against RAM, and the Boolean query runs its
// decision circuit against RAM emptiness.
func TestDifferentialCatalog(t *testing.T) {
	for _, ent := range query.Catalog() {
		t.Run(ent.Name, func(t *testing.T) {
			q := ent.Query
			n := diffN(ent.Name)
			dcs := UniformCardinalities(q, float64(n))
			switch {
			case q.IsFull() && !diffViaOutputSensitive[ent.Name]:
				raw := diffCompile(t, ent.Name, q, true)
				opt := diffCompile(t, ent.Name, q, false)
				if opt.OptimizerReport() == nil {
					t.Fatal("optimized compile returned no optimizer report")
				}
				rawVM, err := raw.CompileVM(context.Background())
				if err != nil {
					t.Fatalf("vm compile (raw): %v", err)
				}
				optVM, err := opt.CompileVM(context.Background())
				if err != nil {
					t.Fatalf("vm compile (opt): %v", err)
				}
				var dbs []Database
				var wantAll [][]string
				for seed := int64(1); seed <= diffSeeds; seed++ {
					db := testutil.RandomDB(q, seed, n)
					want, err := EvaluateRAM(context.Background(), q, db)
					if err != nil {
						t.Fatalf("seed %d: RAM: %v", seed, err)
					}
					wantRows := testutil.Rows(want)
					dbs = append(dbs, db)
					wantAll = append(wantAll, wantRows)
					tiers := []struct {
						name string
						eval func() (*Relation, error)
					}{
						{"relational", func() (*Relation, error) { return raw.EvaluateRelational(context.Background(), db, true) }},
						{"oblivious", func() (*Relation, error) { return raw.Evaluate(context.Background(), db) }},
						{"vm", func() (*Relation, error) {
							outs, err := rawVM.EvalBatch(context.Background(), []Database{db})
							if err != nil {
								return nil, err
							}
							return outs[0], nil
						}},
						{"opt-relational", func() (*Relation, error) { return opt.EvaluateRelational(context.Background(), db, true) }},
						{"opt-oblivious", func() (*Relation, error) { return opt.Evaluate(context.Background(), db) }},
						{"opt-vm", func() (*Relation, error) {
							outs, err := optVM.EvalBatch(context.Background(), []Database{db})
							if err != nil {
								return nil, err
							}
							return outs[0], nil
						}},
					}
					for _, tier := range tiers {
						got, err := tier.eval()
						if err != nil {
							t.Fatalf("seed %d: %s: %v", seed, tier.name, err)
						}
						if d := testutil.DiffRows(wantRows, testutil.Rows(got), "RAM", tier.name); d != "" {
							t.Errorf("seed %d: %s diverges: %s", seed, tier.name, d)
						}
					}
				}
				// One multi-database lock-step batch over all seeds:
				// lane r of the batch must equal seed r's reference.
				outs, err := optVM.EvalBatch(context.Background(), dbs)
				if err != nil {
					t.Fatalf("vm batch over %d seeds: %v", len(dbs), err)
				}
				for i, out := range outs {
					if d := testutil.DiffRows(wantAll[i], testutil.Rows(out), "RAM", "opt-vm-batch"); d != "" {
						t.Errorf("batched seed %d diverges: %s", i+1, d)
					}
				}

			case q.Free.Empty():
				bq, err := CompileBoolean(context.Background(), q, dcs)
				if err != nil {
					t.Fatalf("compile boolean: %v", err)
				}
				for seed := int64(1); seed <= diffSeeds; seed++ {
					db := testutil.RandomDB(q, seed, n)
					want, err := EvaluateRAM(context.Background(), q, db)
					if err != nil {
						t.Fatalf("seed %d: RAM: %v", seed, err)
					}
					got, err := bq.Decide(context.Background(), db)
					if err != nil {
						t.Fatalf("seed %d: decide: %v", seed, err)
					}
					if got != (want.Len() > 0) {
						t.Errorf("seed %d: decision circuit says %v, RAM output has %d rows", seed, got, want.Len())
					}
				}

			default:
				os, err := OutputSensitive(context.Background(), q, dcs)
				if err != nil {
					t.Fatalf("output-sensitive compile: %v", err)
				}
				for seed := int64(1); seed <= diffSeeds; seed++ {
					db := testutil.RandomDB(q, seed, n)
					want, err := EvaluateRAM(context.Background(), q, db)
					if err != nil {
						t.Fatalf("seed %d: RAM: %v", seed, err)
					}
					got, err := os.Evaluate(context.Background(), db)
					if err != nil {
						t.Fatalf("seed %d: output-sensitive: %v", seed, err)
					}
					if d := testutil.DiffRows(testutil.Rows(want), testutil.Rows(got), "RAM", "output-sensitive"); d != "" {
						t.Errorf("seed %d: output-sensitive diverges: %s", seed, d)
					}
				}
			}
		})
	}
}

// TestDifferentialDerivedConstraints re-runs optimized tiers with
// constraints derived from each instance (the tightest conforming DC
// set), so the optimizer also sees per-seed bounds — including genuinely
// empty relations, whose Card=0 bounds drive the empty-propagation
// rewrites hardest. Restricted to the cheapest queries because every
// (query, seed) pair is its own compile.
func TestDifferentialDerivedConstraints(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"triangle", "path2", "path3"} {
		var q *Query
		for _, ent := range query.Catalog() {
			if ent.Name == name {
				q = ent.Query
			}
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= diffSeeds; seed++ {
				db := testutil.RandomDB(q, seed, diffN(name))
				dcs, err := DeriveConstraints(q, db)
				if err != nil {
					t.Fatalf("seed %d: derive: %v", seed, err)
				}
				want, err := EvaluateRAM(context.Background(), q, db)
				if err != nil {
					t.Fatalf("seed %d: RAM: %v", seed, err)
				}
				opt, err := CompileOpts(ctx, q, dcs, CompileOptions{})
				if err != nil {
					t.Fatalf("seed %d: compile: %v", seed, err)
				}
				for _, tier := range []string{"opt-relational", "opt-oblivious"} {
					var got *Relation
					if tier == "opt-relational" {
						got, err = opt.EvaluateRelational(context.Background(), db, true)
					} else {
						got, err = opt.Evaluate(context.Background(), db)
					}
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, tier, err)
					}
					if d := testutil.DiffRows(testutil.Rows(want), testutil.Rows(got), "RAM", tier); d != "" {
						t.Errorf("seed %d: %s diverges: %s", seed, tier, d)
					}
				}
			}
		})
	}
}

// TestDifferentialStoreRoundTrip adds the persistence tier to the
// harness: every full catalog query is compiled on its canonical pair,
// persisted into a plan store, and reloaded through a second store
// handle (as a restarted process would). On every seeded database the
// reloaded plan's oblivious and vectorized evaluations must agree with
// the RAM reference and with the never-persisted compile — a plan that
// survives the disk round trip changes no answer.
func TestDifferentialStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range query.Catalog() {
		if !ent.Query.IsFull() || diffViaOutputSensitive[ent.Name] {
			continue
		}
		t.Run(ent.Name, func(t *testing.T) {
			n := diffN(ent.Name)
			dcs := UniformCardinalities(ent.Query, float64(n))
			canon, err := query.Canonicalize(ent.Query, dcs)
			if err != nil {
				t.Fatalf("canonicalize: %v", err)
			}
			fresh, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := st.PutPlan(store.FromCompiled(canon, fresh)); err != nil {
				t.Fatalf("persist: %v", err)
			}
			st2, err := store.Open(dir)
			if err != nil {
				t.Fatalf("reopen store: %v", err)
			}
			a, err := st2.GetPlan(canon.FP)
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			warm, wcanon, err := a.Compiled()
			if err != nil {
				t.Fatalf("reassemble: %v", err)
			}
			if wcanon.FP != canon.FP {
				t.Fatalf("reloaded fingerprint %s, want %s", wcanon.FP.Short(), canon.FP.Short())
			}
			prog, err := vm.Compile(context.Background(), warm.Obliv.C)
			if err != nil {
				t.Fatalf("vm compile of reloaded plan: %v", err)
			}
			for seed := int64(1); seed <= diffSeeds; seed++ {
				db := testutil.RandomDB(canon.Query, seed, n)
				want, err := EvaluateRAM(context.Background(), canon.Query, db)
				if err != nil {
					t.Fatalf("seed %d: RAM: %v", seed, err)
				}
				wantRows := testutil.Rows(want)
				tiers := []struct {
					name string
					eval func() (*Relation, error)
				}{
					{"fresh-oblivious", func() (*Relation, error) { return fresh.EvaluateObliviousCtx(context.Background(), db) }},
					{"store-oblivious", func() (*Relation, error) { return warm.EvaluateObliviousCtx(context.Background(), db) }},
					{"store-vm", func() (*Relation, error) {
						packed, err := warm.PackOblivious(db)
						if err != nil {
							return nil, err
						}
						outs, err := prog.EvalBatch(context.Background(), [][]vm.Word{packed})
						if err != nil {
							return nil, err
						}
						return warm.DecodeOblivious(outs[0])
					}},
				}
				for _, tier := range tiers {
					got, err := tier.eval()
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, tier.name, err)
					}
					if d := testutil.DiffRows(wantRows, testutil.Rows(got), "RAM", tier.name); d != "" {
						t.Errorf("seed %d: %s diverges: %s", seed, tier.name, d)
					}
				}
			}
		})
	}
}

// TestOptimizerPreservesStats sanity-checks the report arithmetic the
// reduction gate relies on: sizes in the report must match the compiled
// circuits, and optimization must never grow either layer.
func TestOptimizerPreservesStats(t *testing.T) {
	for _, ent := range query.Catalog() {
		if !ent.Query.IsFull() || diffViaOutputSensitive[ent.Name] {
			continue
		}
		raw := diffCompile(t, ent.Name, ent.Query, true)
		opt := diffCompile(t, ent.Name, ent.Query, false)
		rep := opt.OptimizerReport()
		if rep == nil {
			t.Fatalf("%s: missing optimizer report", ent.Name)
		}
		if raw.OptimizerReport() != nil {
			t.Fatalf("%s: NoOpt compile carries an optimizer report", ent.Name)
		}
		st := opt.Stats()
		if rep.RelGatesAfter != st.RelationalGates || rep.WordGatesAfter != st.Gates {
			t.Errorf("%s: report after-sizes (%d rel, %d word) disagree with stats (%d, %d)",
				ent.Name, rep.RelGatesAfter, rep.WordGatesAfter, st.RelationalGates, st.Gates)
		}
		if rep.RelGatesBefore != raw.Stats().RelationalGates {
			t.Errorf("%s: report rel before-size %d disagrees with raw compile %d",
				ent.Name, rep.RelGatesBefore, raw.Stats().RelationalGates)
		}
		// WordGatesBefore counts the gates the rewriting builder built
		// while lowering the already rel-optimized circuit: folded, not
		// yet swept, so strictly between the fully raw pipeline's word
		// count and the final one on any query where folding and the
		// sweep both do something — which is every catalog query.
		if rep.WordGatesBefore >= raw.Stats().Gates {
			t.Errorf("%s: report word before-size %d is not below raw compile %d",
				ent.Name, rep.WordGatesBefore, raw.Stats().Gates)
		}
		if rep.WordGatesAfter > rep.WordGatesBefore || rep.RelGatesAfter > rep.RelGatesBefore {
			t.Errorf("%s: optimizer grew the circuit: %+v", ent.Name, rep)
		}
	}
}
