// Command boundexplorer walks the canonical query suite and shows the
// theory pipeline the compiler is built on: the fractional edge cover,
// the polymatroid bound (Theorem 1), the machine-built Shannon-flow
// proof sequence (Theorem 2) that PANDA-C turns into a circuit, and the
// width measures that govern output-sensitive evaluation (Sections 6-7).
//
// It is the "look inside" companion to the other examples: everything
// printed is computed by exact rational arithmetic.
package main

import (
	"context"
	"fmt"
	"log"

	"circuitql"
	"circuitql/internal/bound"
	"circuitql/internal/proofseq"
	"circuitql/internal/query"
	"circuitql/internal/stats"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	const n = 256 // uniform cardinality per relation (log N = 8)

	fmt.Printf("bounds, proofs, and widths at |R_F| ≤ %d (log N = 8 bits)\n\n", n)
	tb := stats.NewTable("query", "ρ*", "LOGDAPB", "fhtw", "da-subw", "proof steps")
	for _, e := range query.Catalog() {
		q := e.Query
		dcs := circuitql.UniformCardinalities(q, n)

		rho, err := bound.FractionalEdgeCoverNumber(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		res, err := bound.LogDAPBCtx(ctx, q, dcs)
		if err != nil {
			log.Fatal(err)
		}
		seq, _, err := proofseq.BuildCtx(ctx, q, res)
		if err != nil {
			log.Fatal(err)
		}
		w, err := circuitql.ComputeWidths(ctx, q, dcs)
		if err != nil {
			log.Fatal(err)
		}
		rhoF, _ := rho.Float64()
		dsF, _ := w.DASubw.Float64()
		fF, _ := w.Fhtw.Float64()
		tb.Row(e.Name, rhoF, res.LogValue.RatString()+" bits", fF, dsF/8, len(seq))
	}
	fmt.Println(tb)

	// Zoom in on the triangle: the full derivation.
	q := query.Triangle()
	dcs := circuitql.UniformCardinalities(q, n)
	res, err := bound.LogDAPBCtx(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("triangle, in detail:")
	fmt.Printf("  Shannon-flow δ (Theorem 1 dual):\n")
	for _, d := range res.Witness.Delta {
		fmt.Printf("    %s · h(%s|%s)   [constraint %s]\n",
			d.Weight.RatString(), d.DC.Y.Label(q.VarNames), d.DC.X.Label(q.VarNames),
			d.DC.Label(q.VarNames))
	}
	if err := res.CheckWitness(q); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  witness identity verified exactly (Σδ·n = LOGDAPB) ✓")

	seq, delta, err := proofseq.BuildCtx(ctx, q, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  proof sequence (Theorem 2): %s\n", seq.Label(q.VarNames))
	if err := proofseq.Verify(delta, proofseq.Lambda(res.Target), seq); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  sequence verified: every step sound, final vector dominates λ ✓")

	// And the effect of a functional dependency.
	fd, err := circuitql.ParseConstraints(q, "R|A <= 1")
	if err != nil {
		log.Fatal(err)
	}
	res2, err := bound.LogDAPBCtx(ctx, q, append(dcs, fd...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  with FD A→B on R: LOGDAPB drops %s → %s bits (N^1.5 → N)\n",
		res.LogValue.RatString(), res2.LogValue.RatString())
}
