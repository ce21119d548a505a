// Command outsourced models the paper's outsourced-query-processing
// application (Section 1 and Section 6): a client uploads encrypted data
// to a server; the server evaluates circuits homomorphically, so the
// program must be oblivious and non-interactive. Output-sensitive
// evaluation (Theorem 5) runs as a two-circuit protocol:
//
//  1. the server evaluates the OUT-circuit, built from the public degree
//     constraints alone, producing (the encryption of) OUT = |Q(D)|;
//  2. the client reveals OUT — allowed, since the output size is part of
//     the result — and the server builds and evaluates the second
//     circuit, sized Õ(N + 2^da-fhtw + OUT) instead of the worst case.
//
// Homomorphic encryption is substituted by plain evaluation (DESIGN.md):
// the circuits are the deliverable; the crypto layer would evaluate the
// same gates over ciphertexts.
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
	// A chain join whose output is usually far below its worst case:
	// supplier -> part -> region -> warehouse provenance paths. Its GHD
	// has three bags, so the third Yannakakis phase runs output-bounded
	// joins whose circuit size is governed by the revealed OUT.
	q, err := circuitql.ParseQuery("Q(S,P,R,W) :- Supplies(S,P), ShipsTo(P,R), Stocked(R,W)")
	if err != nil {
		log.Fatal(err)
	}

	const n = 24
	db := circuitql.Database{
		"Supplies": workload.UniformBinary(7, n, 12),
		"ShipsTo":  workload.UniformBinary(8, n, 12),
		"Stocked":  workload.UniformBinary(9, n, 12),
	}
	// Public metadata the server knows: the degree constraints.
	dcs, err := circuitql.DeriveConstraints(q, db)
	if err != nil {
		log.Fatal(err)
	}

	os, err := circuitql.OutputSensitive(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", q)
	width, _ := os.WidthBits().Float64()
	fmt.Printf("da-fhtw: %.2f bits (bag bound %.0f tuples)\n\n", width, exp2(width))

	// Phase 1: the server evaluates the count circuit (one round trip).
	g, d, cost := os.CountCircuitStats()
	out, err := os.Count(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (server): OUT-circuit %d relational gates, depth %d, cost %.0f\n", g, d, cost)
	fmt.Printf("phase 1 result:   OUT = %d output tuples (client reveals this)\n\n", out)

	// Phase 2: circuit parameterized by (DC, OUT).
	ec, err := os.EvalCircuit(ctx, out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2 (server): evaluation circuit %d relational gates, depth %d, cost %.0f\n",
		ec.Circuit.Size(), ec.Circuit.Depth(), ec.Circuit.Cost())

	got, err := ec.EvaluateCtx(ctx, db, false)
	if err != nil {
		log.Fatal(err)
	}
	want, err := circuitql.EvaluateRAM(ctx, q, db)
	if err != nil {
		log.Fatal(err)
	}
	if !got.Equal(want) {
		log.Fatal("BUG: circuit result differs from reference")
	}
	fmt.Printf("phase 2 result:   %d tuples, verified ✓\n\n", got.Len())

	// The output-sensitive payoff: compare phase-2 cost across OUT
	// values against the worst-case N² the naive sizing would pay.
	fmt.Println("phase-2 circuit cost as a function of the revealed OUT:")
	worstOut := n * n * n
	worst, err := os.EvalCircuit(ctx, worstOut)
	if err != nil {
		log.Fatal(err)
	}
	tb := stats.NewTable("OUT", "relational cost", "vs worst case N³")
	for _, o := range []int{4, 16, 64, 256, 1024, worstOut} {
		e, err := os.EvalCircuit(ctx, o)
		if err != nil {
			log.Fatal(err)
		}
		tb.Row(o, e.Circuit.Cost(), e.Circuit.Cost()/worst.Circuit.Cost())
	}
	fmt.Println(tb)
}

func exp2(bits float64) float64 {
	v := 1.0
	for bits >= 1 {
		v *= 2
		bits--
	}
	return v * (1 + bits) // good enough for display
}
