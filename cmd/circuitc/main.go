// Command circuitc is the circuit compiler CLI: it parses a conjunctive
// query, takes uniform cardinality constraints, compiles the plan the
// serving engine would compile for that pair, and prints its
// statistics — the polymatroid bound, the PANDA-C relational circuit
// (optionally its full gate list), and the oblivious word-level
// circuit.
//
// Usage:
//
//	circuitc -query 'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)' -n 64 [-gates] [-no-oblivious] [-no-opt]
//
// With -save FILE the compiled plan is written as a plan file, the
// format WriteArtifact writes and LoadArtifact reads.
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
		noObliv   = flag.Bool("no-oblivious", false, "compile the relational circuit only (fast)")
		widthsToo = flag.Bool("widths", false, "also print fhtw / da-fhtw / da-subw")
		dcSrc     = flag.String("dc", "", "extra degree constraints, e.g. 'S|B <= 4; R|A <= 1'")
		noOpt     = flag.Bool("no-opt", false, "skip the optimizer passes (print the constructions' raw sizes)")
		dotPath   = flag.String("dot", "", "write the relational circuit as Graphviz DOT to this file")
		savePath  = flag.String("save", "", "write the compiled plan file (LoadArtifact reads it) to this file")
		exportDir = flag.String("export", "", "write a generated workload database for the query as columnar files under this directory (circuitd -db serves it)")
		exportN   = flag.Int("export-n", 16, "tuples per relation for -export")
		exportSd  = flag.Int64("export-seed", 1, "generator seed for -export")
	)
	flag.Parse()
	if *savePath != "" && *noObliv {
		log.Fatal("-save writes the oblivious circuit's plan file; drop -no-oblivious")
	}
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
	// Two requests printing the same fingerprint are one query to the
	// engine: one cache entry, one compile, one stored plan.
	canon, err := query.Canonicalize(q, dcs)
	if err != nil {
		log.Fatal(err)
	}

	var c *core.Compiled
	if *noObliv {
		c, err = compileRelational(ctx, q, dcs, *noOpt)
	} else {
		c, err = core.CompileQueryOptsCtx(ctx, q, dcs, core.CompileOptions{NoOpt: *noOpt})
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query:            %s\n", q)
	fmt.Printf("constraints:      |R_F| ≤ %g for every atom\n", *n)
	fmt.Printf("LOGDAPB:          %s bits (DAPB ≈ %.4g tuples)\n", c.Bound.LogValue.RatString(), c.Bound.Value())
	fmt.Printf("fingerprint:      %s\n", canon.FP.Short())
	fmt.Printf("proof sequence:   %s\n", c.Seq.Label(q.VarNames))
	fmt.Printf("relational:       %d gates, depth %d, cost %.6g, %d truncation restarts\n",
		c.Rel.Size(), c.Rel.Depth(), c.Rel.Cost(), c.Restarts)
	if rep := c.Opt; rep != nil {
		fmt.Printf("optimizer:        rel %d -> %d gates", rep.RelGatesBefore, rep.RelGatesAfter)
		if c.Obliv != nil {
			// The word circuit is folded as it is built, so "built" is
			// already below the raw lowering; -no-opt prints the raw count.
			fmt.Printf(", word %d built -> %d after the sweep (%.1f%% swept)",
				rep.WordGatesBefore, rep.WordGatesAfter, 100*rep.WordReduction())
		}
		fmt.Println()
	}

	if *gates {
		fmt.Println("\nrelational gate list:")
		fmt.Println(c.Rel.String())
	}

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Rel.WriteDot(f, "circuit"); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote DOT:        %s\n", *dotPath)
	}

	if c.Obliv != nil {
		w := c.Obliv.C
		st := w.StatsOf()
		fmt.Printf("oblivious:        %d word gates, depth %d, %d input wires\n",
			st.Gates, st.Depth, st.Inputs)
		bc := w.BitCostAt(64)
		fmt.Printf("secure cost:      %d bit gates, %d non-linear, %.1f MiB garbled (κ=128)\n",
			bc.Total, bc.NonLinear, float64(bc.GarbledBytes(128))/(1<<20))
		fmt.Printf("Brent steps:      P=1: %d   P=64: %d   P=∞: %d\n",
			core.BrentSchedule(w, 1), core.BrentSchedule(w, 64), w.Depth())
		// The program the compile built with the plan, as the engine runs it.
		p := c.Prog
		swaps, lexes := p.Fused()
		fmt.Printf("vm:               %d instructions (%d swap, %d lex), %d slots, %d levels, %d runs\n",
			p.Instructions(), swaps, lexes, p.Slots(), p.Levels(), p.Runs())
	}

	if *savePath != "" {
		data, err := store.EncodePlan(store.FromCompiled(canon, c))
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*savePath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote plan:       %s (%d bytes)\n", *savePath, len(data))
	}

	if *widthsToo {
		w, err := circuitql.ComputeWidths(ctx, q, dcs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("widths:           fhtw=%s  da-fhtw=%s bits  da-subw=%s bits\n",
			w.Fhtw.RatString(), w.DAFhtw.RatString(), w.DASubw.RatString())
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

// compileRelational is the relational half of a compile — PANDA-C,
// then opt.Rel unless noOpt — for -no-oblivious, which skips the
// lowering, by far the costliest stage.
func compileRelational(ctx context.Context, q *query.Query, dcs query.DCSet, noOpt bool) (*core.Compiled, error) {
	res, err := panda.CompileFCQCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	c := &core.Compiled{Query: q, DC: dcs, Rel: res.Circuit, RelOutput: res.Output,
		Bound: res.Bound, Seq: res.Seq, Restarts: res.Restarts}
	if !noOpt {
		before := c.Rel.Size()
		rel, mapping := opt.Rel(c.Rel)
		c.Rel, c.RelOutput = rel, mapping[c.RelOutput]
		c.Opt = &opt.Report{RelGatesBefore: before, RelGatesAfter: rel.Size()}
	}
	return c, nil
}
