// Command trianglecount demonstrates query evaluation by hardware
// (Section 1): triangle counting over a graph compiled to one fixed
// circuit. Gate count models chip area / power, depth models latency,
// and Brent's theorem gives the time on P parallel functional units.
//
// The same compiled circuit is reused across several graphs (uniform,
// skewed, worst case) — exactly the "build a chip for the frequent
// query" deployment the paper motivates.
package main

import (
	"context"
	"fmt"
	"log"

	"circuitql"
	"circuitql/internal/stats"
	"circuitql/internal/workload"
)

func main() {
	ctx := context.Background()
	q, err := circuitql.ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		log.Fatal(err)
	}

	const n = 24 // per-relation cardinality cap baked into the "chip"
	dcs := circuitql.UniformCardinalities(q, n)
	cq, err := circuitql.Compile(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	st := cq.Stats()
	fmt.Printf("chip for |R|,|S|,|T| ≤ %d: %d word gates (area), depth %d (latency)\n\n",
		n, st.Gates, st.Depth)

	// The same silicon evaluates every conforming workload.
	kinds := []struct {
		name string
		kind workload.TriangleKind
	}{
		{"uniform", workload.TriangleUniform},
		{"skewed", workload.TriangleSkewed},
		{"worst-case", workload.TriangleWorstCase},
	}
	tb := stats.NewTable("graph", "|E| per table", "triangles", "verified")
	for _, k := range kinds {
		db := workload.TriangleDB(k.kind, 7, n)
		out, err := cq.Evaluate(ctx, db)
		if err != nil {
			log.Fatal(err)
		}
		want, err := circuitql.EvaluateRAM(ctx, q, db)
		if err != nil {
			log.Fatal(err)
		}
		ok := "✓"
		if !out.Equal(want) {
			ok = "✗"
		}
		tb.Row(k.name, db["R"].Len(), out.Len(), ok)
	}
	fmt.Println(tb)

	// Brent's theorem: parallel evaluation time vs number of units.
	fmt.Println("parallel evaluation (Brent): steps ≤ W/P + D")
	pt := stats.NewTable("P", "steps", "speedup")
	base := cq.BrentSteps(1)
	for _, p := range []int{1, 4, 16, 64, 256, 1024, 1 << 20} {
		steps := cq.BrentSteps(p)
		pt.Row(p, steps, float64(base)/float64(steps))
	}
	fmt.Println(pt)
}
