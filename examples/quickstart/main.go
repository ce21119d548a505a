// Command quickstart is the smallest end-to-end tour of circuitql:
// parse a conjunctive query, derive degree constraints from a concrete
// database, compile the worst-case-optimal oblivious circuit
// (Theorems 3-4), evaluate it, and compare against a plain in-memory
// evaluation.
package main

import (
	"context"
	"fmt"
	"log"

	"circuitql"
)

func main() {
	ctx := context.Background()
	// The paper's running example: the triangle query.
	q, err := circuitql.ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		log.Fatal(err)
	}

	// A small graph: R, S, T are edge tables.
	r := circuitql.NewRelation("src", "dst")
	s := circuitql.NewRelation("src", "dst")
	t := circuitql.NewRelation("src", "dst")
	edges := [][2]int64{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {1, 4}, {2, 4}, {5, 1}}
	for _, e := range edges {
		r.Insert(e[0], e[1])
		s.Insert(e[0], e[1])
		t.Insert(e[0], e[1])
	}
	db := circuitql.Database{"R": r, "S": s, "T": t}

	// Degree constraints: measured from the data here; in a deployment
	// they come from schema knowledge (keys, cardinality caps, FDs).
	dcs, err := circuitql.DeriveConstraints(q, db)
	if err != nil {
		log.Fatal(err)
	}

	// Compile once. The circuit depends only on (Q, DC) — it would
	// evaluate *any* database within these constraints.
	cq, err := circuitql.Compile(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	st := cq.Stats()
	fmt.Printf("query:              %s\n", q)
	fmt.Printf("polymatroid bound:  %.0f tuples\n", st.DAPB)
	fmt.Printf("relational circuit: %d gates, depth %d, cost %.0f\n",
		st.RelationalGates, st.RelationalDepth, st.Cost)
	fmt.Printf("oblivious circuit:  %d word gates, depth %d\n", st.Gates, st.Depth)

	out, err := cq.Evaluate(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	want, err := circuitql.EvaluateRAM(ctx, q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncircuit output (%d triangles): %v\n", out.Len(), out)
	if !out.Equal(want) {
		log.Fatal("BUG: circuit result differs from reference evaluation")
	}
	fmt.Println("matches reference evaluation ✓")
}
