// Command secure_analytics models the paper's secure multi-party
// computation application (Section 1): a hospital and a pharmacy want to
// join their private tables without revealing them. Generic MPC
// protocols (garbled circuits, GMW, BGW) evaluate a *circuit*; their
// communication volume is proportional to the circuit's size and their
// round count to its depth, so the Õ(N + DAPB) circuit of Theorem 4
// directly improves the protocol over SMCQL's naive Õ(N^m) circuit.
//
// The cryptography itself is out of scope (and substituted per
// DESIGN.md): the example builds both circuits, reports the cost model
// each party would pay, and verifies the circuit's result obliviously —
// the evaluation touches every slot in a fixed order regardless of the
// data.
package main

import (
	"context"
	"fmt"
	"log"

	"circuitql"
	"circuitql/internal/baseline"
	"circuitql/internal/bitblast"
	"circuitql/internal/boolcircuit"
	"circuitql/internal/mpcsim"
	"circuitql/internal/opcircuits"
	"circuitql/internal/stats"
	"circuitql/internal/workload"
)

func main() {
	ctx := context.Background()
	// Q(patient, drug, outcome): join prescriptions with reactions and a
	// monitoring table — structurally a triangle.
	q, err := circuitql.ParseQuery("Q(P,D,O) :- Prescribed(P,D), Reacted(D,O), Monitored(P,O)")
	if err != nil {
		log.Fatal(err)
	}

	const n = 20
	db := circuitql.Database{
		"Prescribed": workload.UniformBinary(100, n, 10),
		"Reacted":    workload.UniformBinary(101, n, 10),
		"Monitored":  workload.UniformBinary(102, n, 10),
	}
	// Public information between the parties: the agreed upper bounds.
	dcs := circuitql.UniformCardinalities(q, n)

	cq, err := circuitql.Compile(ctx, q, dcs)
	if err != nil {
		log.Fatal(err)
	}
	st := cq.Stats()

	naive, _, err := baseline.NaiveCircuit(q, dcs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("MPC cost model (communication ∝ circuit cost, rounds ∝ depth)")
	tb := stats.NewTable("protocol circuit", "relational cost", "relational depth")
	tb.Row("naive (SMCQL-style, Õ(N^m))", naive.Cost(), naive.Depth())
	tb.Row("PANDA-C (this work, Õ(N+DAPB))", st.Cost, st.RelationalDepth)
	fmt.Println(tb)
	fmt.Printf("PANDA-C word-level circuit: %d gates, depth %d\n", st.Gates, st.Depth)
	fmt.Printf("polymatroid bound DAPB = %.0f (vs naive worst case %d)\n\n",
		st.DAPB, n*n*n)

	// Oblivious evaluation: the access pattern is fixed by the circuit,
	// so an adversary observing the computation learns nothing beyond
	// the declared bounds.
	out, err := cq.Evaluate(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	want, err := circuitql.EvaluateRAM(ctx, q, db)
	if err != nil {
		log.Fatal(err)
	}
	if !out.Equal(want) {
		log.Fatal("BUG: oblivious result differs from plaintext join")
	}
	fmt.Printf("joint result: %d (patient, drug, outcome) matches — verified against plaintext ✓\n", out.Len())

	// The relational circuit is the protocol transcript skeleton: print
	// the first few gates so the reader can see it is data independent.
	fmt.Println("\nfirst relational gates of the shared protocol circuit:")
	for i, g := range cq.GateList() {
		if i == 8 {
			break
		}
		fmt.Println("  " + g)
	}

	// Finally, actually run a (small) private join under simulated GMW:
	// the hospital holds Prescribed, the pharmacy holds Reacted; neither
	// sees the other's plaintext, and the transcript's shape is fixed by
	// the circuit alone.
	fmt.Println("\nsimulated 2-party GMW execution of a private key-join:")
	c := boolcircuit.New()
	rIn := opcircuits.NewInput(c, []string{"P", "D"}, 4)
	sIn := opcircuits.NewInput(c, []string{"D", "O"}, 3)
	joined := opcircuits.PKJoin(c, rIn, sIn)
	opcircuits.MarkOutputs(c, joined)
	res, err := bitblast.BlastCtx(ctx, c, 64)
	if err != nil {
		log.Fatal(err)
	}

	hospital := circuitql.NewRelation("P", "D")
	hospital.Insert(1, 10)
	hospital.Insert(2, 11)
	hospital.Insert(3, 10)
	pharmacy := circuitql.NewRelation("D", "O")
	pharmacy.Insert(10, 7)
	pharmacy.Insert(12, 9)
	pr, err := opcircuits.Pack(hospital, []string{"P", "D"}, 4)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := opcircuits.Pack(pharmacy, []string{"D", "O"}, 3)
	if err != nil {
		log.Fatal(err)
	}
	bits := bitblast.PackWords(append(pr, ps...), 64)
	owner := make([]int, len(bits))
	for i := range owner {
		if i >= len(pr)*64 {
			owner[i] = 1
		}
	}
	outBits, tr, err := mpcsim.Run(res.C, bits, owner, 2026)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := opcircuits.Decode(joined.Schema, bitblast.UnpackWords(outBits, 64))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  joint result reconstructed from shares: %v\n", rel)
	fmt.Printf("  protocol: %d AND triples, %d rounds, %d bits exchanged (input independent)\n",
		tr.ANDGates, tr.Rounds, tr.BitsSent)
}
