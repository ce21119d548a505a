// Command circuitrun compiles a query and evaluates its circuits on
// generated data, verifying the oblivious result against the reference
// RAM evaluation.
//
// Usage:
//
//	circuitrun -query 'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)' -n 16 -seed 1 [-workload uniform|skewed|worstcase]
//
// Relations are generated per distinct atom name with n tuples each; for
// the triangle query the -workload flag selects the data shape. An empty
// Q(D) makes the verification vacuous, so the generator seed is advanced
// (up to seedTries times, the seed used is printed) until the query has
// an answer; when it never does, or CSV data has none, the run says so
// instead of claiming a verified result.
//
// With -trace the run is recorded by the obs tracer and the span tree of
// each pipeline phase — compile with its lp-solve / proofseq /
// relcircuit / boolcircuit children, then each evaluation — is printed
// with wall times and circuit-size counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"circuitql"
	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/workload"
)

// seedTries bounds the search for generated data with a non-empty Q(D).
const seedTries = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("circuitrun: ")
	var (
		src   = flag.String("query", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", "conjunctive query")
		n     = flag.Int("n", 16, "tuples per relation")
		seed  = flag.Int64("seed", 1, "generator seed")
		kind  = flag.String("workload", "uniform", "uniform | skewed | worstcase (triangle only)")
		obl   = flag.Bool("oblivious", true, "evaluate the oblivious circuit (false: relational only)")
		dir   = flag.String("data", "", "directory of <RelationName>.csv files (overrides -workload)")
		trace = flag.Bool("trace", false, "print the span tree of the compile and each evaluation")
		noOpt = flag.Bool("no-opt", false, "skip the circuit optimizer (evaluate the raw constructions)")
		batch = flag.Int("batch", 0, "replicate the database N ways through the vectorized batch evaluator and report per-request vs amortized ns/op")
	)
	flag.Parse()

	ctx := context.Background()
	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(0)
		ctx = obs.WithTracer(ctx, tracer)
	}

	q, err := circuitql.ParseQuery(*src)
	if err != nil {
		log.Fatal(err)
	}
	var (
		db   circuitql.Database
		want *circuitql.Relation // the reference answer Q(D)
	)
	if *dir != "" {
		db = circuitql.Database{}
		for _, a := range q.Atoms {
			if _, ok := db[a.Name]; ok {
				continue
			}
			f, err := os.Open(filepath.Join(*dir, a.Name+".csv"))
			if err != nil {
				log.Fatal(err)
			}
			rel, err := relation.ReadCSV(f)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", a.Name, err)
			}
			db[a.Name] = rel
		}
		if want, err = circuitql.EvaluateRAM(ctx, q, db); err != nil {
			log.Fatal(err)
		}
	} else {
		generate := func(seed int64) circuitql.Database { return workload.ForQuery(q, seed, *n) }
		if q.String() == query.Triangle().String() {
			k := map[string]workload.TriangleKind{
				"uniform": workload.TriangleUniform, "skewed": workload.TriangleSkewed,
				"worstcase": workload.TriangleWorstCase,
			}[*kind]
			generate = func(seed int64) circuitql.Database { return workload.TriangleDB(k, seed, *n) }
		}
		used := *seed
		for try := int64(0); try < seedTries; try++ {
			used = *seed + try
			db = generate(used)
			if want, err = circuitql.EvaluateRAM(ctx, q, db); err != nil {
				log.Fatal(err)
			}
			if want.Len() > 0 {
				break
			}
		}
		switch {
		case want.Len() == 0:
			fmt.Printf("Q(D) is empty at every seed %d..%d\n", *seed, used)
		case used != *seed:
			fmt.Printf("using seed %d: Q(D) is empty at seeds %d..%d\n", used, *seed, used-1)
		}
	}

	dcs, err := circuitql.DeriveConstraints(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", q)
	for name, r := range db {
		fmt.Printf("  %s: %d tuples\n", name, r.Len())
	}

	start := time.Now()
	cq, err := circuitql.CompileOpts(ctx, q, dcs, circuitql.CompileOptions{NoOpt: *noOpt})
	if err != nil {
		log.Fatal(err)
	}
	st := cq.Stats()
	fmt.Printf("compiled in %v: relational %d gates (cost %.6g), oblivious %d gates depth %d\n",
		time.Since(start), st.RelationalGates, st.Cost, st.Gates, st.Depth)
	if rep := cq.OptimizerReport(); rep != nil {
		// The word circuit is folded as it is built, so "built" is already
		// below the raw lowering; -no-opt prints the raw count.
		fmt.Printf("optimizer: rel %d -> %d gates, word %d built -> %d after the sweep (%.1f%% swept) in %v\n",
			rep.RelGatesBefore, rep.RelGatesAfter,
			rep.WordGatesBefore, rep.WordGatesAfter, 100*rep.WordReduction(), rep.Elapsed)
	}

	start = time.Now()
	rel, err := cq.EvaluateRelational(ctx, db, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relational circuit: %d tuples in %v (bound-checked)\n", rel.Len(), time.Since(start))
	if !rel.Equal(want) {
		log.Fatal("relational circuit result DIFFERS from reference")
	}

	if *obl {
		start = time.Now()
		out, err := cq.Evaluate(ctx, db)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("oblivious circuit:  %d tuples in %v\n", out.Len(), time.Since(start))
		if !out.Equal(want) {
			log.Fatal("oblivious circuit result DIFFERS from reference")
		}
	}
	if want.Len() > 0 {
		fmt.Printf("verified against reference evaluation ✓ (|Q(D)| = %d)\n", want.Len())
	} else {
		fmt.Println("vacuous: the circuits agree with the reference evaluation only on an empty Q(D); nothing was verified")
	}

	if *batch > 0 {
		prog, err := cq.CompileVM(ctx)
		if err != nil {
			log.Fatal(err)
		}
		swaps, lexes := prog.Fused()
		fmt.Printf("\nvm program: %d gates -> %d instructions (%d swap, %d lex), %d runs, %d levels, %d slots/lane\n",
			prog.Gates(), prog.Instructions(), swaps, lexes, prog.Runs(), prog.Levels(), prog.Slots())

		// Single-request baseline through the interpreted oblivious
		// circuit — the path a non-batched serve pays per request.
		start = time.Now()
		if _, err := cq.Evaluate(ctx, db); err != nil {
			log.Fatal(err)
		}
		single := time.Since(start)

		// The same database through the vm alone (a batch of one, lane
		// stride 1), then replicated *batch ways and evaluated in one
		// lock-step pass: total wall clock divides across the batch.
		// Best of fifty each (the first calls run on cold caches), pack and
		// decode included.
		evalBatch := func(n int) time.Duration {
			dbs := make([]circuitql.Database, n)
			for i := range dbs {
				dbs[i] = db
			}
			var best time.Duration
			for try := 0; try < 50; try++ {
				start := time.Now()
				outs, err := prog.EvalBatch(ctx, dbs)
				if err != nil {
					log.Fatal(err)
				}
				if d := time.Since(start); try == 0 || d < best {
					best = d
				}
				for i, out := range outs {
					if !out.Equal(want) {
						log.Fatalf("batch of %d, lane %d DIFFERS from reference", n, i)
					}
				}
			}
			return best
		}
		perInstr := func(d time.Duration) float64 {
			return float64(d.Nanoseconds()) / float64(prog.Instructions())
		}
		one := evalBatch(1)
		batched := evalBatch(*batch)
		amortized := batched / time.Duration(*batch)
		fmt.Printf("single-request interpreted eval: %v\n", single)
		fmt.Printf("batch of 1 vectorized:           %v, %.2f ns/instruction\n", one, perInstr(one))
		fmt.Printf("batch of %d vectorized:          %v total, %v amortized per request (%.1fx), %.2f ns/instruction\n",
			*batch, batched, amortized, float64(single)/float64(amortized), perInstr(amortized))
	}

	if tracer != nil {
		fmt.Printf("\ntrace (%d spans, oldest first):\n", len(tracer.Last(0)))
		roots := tracer.Last(0)
		for i := len(roots) - 1; i >= 0; i-- {
			fmt.Print(obs.Format(roots[i]))
		}
	}
}
