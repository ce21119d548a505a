// Command circuitc is the circuit compiler CLI: it parses a conjunctive
// query, takes uniform cardinality constraints, and prints the compiled
// circuits' statistics — the polymatroid bound, the PANDA-C relational
// circuit (optionally its full gate list), and the oblivious word-level
// circuit.
//
// Usage:
//
//	circuitc -query 'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)' -n 64 [-gates] [-no-oblivious] [-no-opt]
//
// With -store DIR the fully compiled plan (post-optimization, with its
// packing metadata) is persisted into a plan-store directory under its
// canonical fingerprint, ready for circuitd -store to warm-load:
//
//	circuitc -query '...' -store /var/lib/circuitql/plans
//
// With -export DIR a generated workload database for the query is
// written as columnar relation files (-export-n tuples per relation,
// -export-seed), ready for circuitd -db:
//
//	circuitc -query '...' -export /var/lib/circuitql/db -export-n 64
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"circuitql"
	"circuitql/internal/core"
	"circuitql/internal/opt"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("circuitc: ")
	var (
		src       = flag.String("query", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", "conjunctive query (datalog style)")
		n         = flag.Float64("n", 64, "uniform cardinality bound per relation")
		gates     = flag.Bool("gates", false, "print the relational gate list")
		noObliv   = flag.Bool("no-oblivious", false, "skip the oblivious lowering (fast)")
		widthsToo = flag.Bool("widths", false, "also print fhtw / da-fhtw / da-subw")
		dcSrc     = flag.String("dc", "", "extra degree constraints, e.g. 'S|B <= 4; R|A <= 1'")
		noOpt     = flag.Bool("no-opt", false, "skip the optimizer passes (print the constructions' raw sizes)")
		dotPath   = flag.String("dot", "", "write the relational circuit as Graphviz DOT to this file")
		savePath  = flag.String("save", "", "write the oblivious circuit artifact to this file")
		storeDir  = flag.String("store", "", "persist the compiled plan into this plan-store directory (circuitd -store warm-loads it)")
		exportDir = flag.String("export", "", "write a generated workload database for the query as columnar files under this directory (circuitd -db serves it)")
		exportN   = flag.Int("export-n", 16, "tuples per relation for -export")
		exportSd  = flag.Int64("export-seed", 1, "generator seed for -export")
	)
	flag.Parse()
	ctx := context.Background()

	q, err := circuitql.ParseQuery(*src)
	if err != nil {
		log.Fatal(err)
	}
	dcs := circuitql.UniformCardinalities(q, *n)
	if *dcSrc != "" {
		extra, err := circuitql.ParseConstraints(q, *dcSrc)
		if err != nil {
			log.Fatal(err)
		}
		dcs = append(dcs, extra...)
	}

	b, err := circuitql.PolymatroidBound(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	bf, _ := b.Float64()
	fmt.Printf("query:            %s\n", q)
	fmt.Printf("constraints:      |R_F| ≤ %g for every atom\n", *n)
	fmt.Printf("LOGDAPB:          %s bits (DAPB ≈ %.4g tuples)\n", b.RatString(), exp2(bf))
	// Two requests printing the same fingerprint are one query to the
	// engine: one cache entry, one compile, one stored plan.
	canon, err := query.Canonicalize(q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fingerprint:      %s\n", canon.FP.Short())

	res, err := panda.CompileFCQCtx(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proof sequence:   %s\n", res.Seq.Label(q.VarNames))
	fmt.Printf("relational:       %d gates, depth %d, cost %.6g, %d truncation restarts\n",
		res.Circuit.Size(), res.Circuit.Depth(), res.Circuit.Cost(), res.Restarts)

	if !*noOpt {
		before := res.Circuit.Size()
		optimized, mapping := opt.Rel(res.Circuit)
		res.Circuit = optimized
		res.Output = mapping[res.Output]
		fmt.Printf("optimized:        %d gates (was %d), depth %d, cost %.6g\n",
			optimized.Size(), before, optimized.Depth(), optimized.Cost())
	}

	if *gates {
		fmt.Println("\nrelational gate list:")
		fmt.Println(res.Circuit.String())
	}

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Circuit.WriteDot(f, "circuit"); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote DOT:        %s\n", *dotPath)
	}

	if !*noObliv {
		obl, err := core.CompileObliviousCtx(ctx, res.Circuit)
		if err != nil {
			log.Fatal(err)
		}
		if !*noOpt {
			before := obl.C.Size()
			if obl.C, err = opt.BoolCtx(ctx, obl.C); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("word-level opt:   %d gates -> %d (%.1f%% smaller)\n",
				before, obl.C.Size(), 100*(1-float64(obl.C.Size())/float64(before)))
		}
		st := obl.C.StatsOf()
		fmt.Printf("oblivious:        %d word gates, depth %d, %d input wires\n",
			st.Gates, st.Depth, st.Inputs)
		bc := obl.C.BitCostAt(64)
		fmt.Printf("secure cost:      %d bit gates, %d non-linear, %.1f MiB garbled (κ=128)\n",
			bc.Total, bc.NonLinear, float64(bc.GarbledBytes(128))/(1<<20))
		fmt.Printf("Brent steps:      P=1: %d   P=64: %d   P=∞: %d\n",
			core.BrentSchedule(obl.C, 1), core.BrentSchedule(obl.C, 64), obl.C.Depth())
		if *savePath != "" {
			f, err := os.Create(*savePath)
			if err != nil {
				log.Fatal(err)
			}
			nBytes, err := obl.WriteTo(f)
			if err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote artifact:   %s (%d bytes)\n", *savePath, nBytes)
		}
	}

	if *widthsToo {
		w, err := circuitql.ComputeWidths(ctx, q, dcs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("widths:           fhtw=%s  da-fhtw=%s bits  da-subw=%s bits\n",
			w.Fhtw.RatString(), w.DAFhtw.RatString(), w.DASubw.RatString())
	}

	if *storeDir != "" {
		// The engine compiles the canonicalized pair, so persist exactly
		// that: the artifact's fingerprint then matches what circuitd
		// computes for any structurally identical request.
		compiled, err := core.CompileQueryOptsCtx(ctx, canon.Query, canon.DCs,
			core.CompileOptions{NoOpt: *noOpt})
		if err != nil {
			log.Fatal(err)
		}
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.PutPlan(store.FromCompiled(canon, compiled)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stored plan:      %s under %s (%d plans in store)\n",
			canon.FP.Short(), *storeDir, st.Len())
	}

	if *exportDir != "" {
		db := workload.ForQuery(q, *exportSd, *exportN)
		if err := store.ExportDB(*exportDir, db); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported db:      %d relations x %d tuples under %s\n",
			len(db), *exportN, *exportDir)
	}
}

func exp2(bits float64) float64 {
	v := 1.0
	for bits >= 1 {
		v *= 2
		bits--
	}
	return v * (1 + bits)
}
