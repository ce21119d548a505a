package circuitql_test

import (
	"context"
	"fmt"

	"circuitql"
)

// Compile the paper's running example — the triangle query — and
// evaluate the resulting oblivious circuit.
func ExampleCompile() {
	ctx := context.Background()
	q, _ := circuitql.ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")

	r := circuitql.NewRelation("u", "v")
	r.Insert(1, 2)
	s := circuitql.NewRelation("u", "v")
	s.Insert(2, 3)
	t := circuitql.NewRelation("u", "v")
	t.Insert(1, 3)
	db := circuitql.Database{"R": r, "S": s, "T": t}

	dcs := circuitql.UniformCardinalities(q, 4)
	cq, _ := circuitql.Compile(ctx, q, dcs)
	out, _ := cq.Evaluate(ctx, db)
	fmt.Println(out)
	// Output: [A B C]{[1 2 3]}
}

// The polymatroid bound of the triangle under uniform cardinalities is
// the AGM bound N^{3/2}.
func ExamplePolymatroidBound() {
	ctx := context.Background()
	q, _ := circuitql.ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	b, _ := circuitql.PolymatroidBound(ctx, q, circuitql.UniformCardinalities(q, 1024))
	fmt.Println(b.RatString(), "bits") // 1.5 · log2(1024)
	// Output: 15 bits
}

// Output-sensitive evaluation runs as two circuits: one computes
// OUT = |Q(D)| from the constraints alone, the second is sized by OUT.
func ExampleOutputSensitive() {
	ctx := context.Background()
	q, _ := circuitql.ParseQuery("Q(A,C) :- R(A,B), S(B,C)")
	r := circuitql.NewRelation("u", "v")
	r.Insert(1, 10)
	r.Insert(2, 10)
	s := circuitql.NewRelation("u", "v")
	s.Insert(10, 7)
	db := circuitql.Database{"R": r, "S": s}

	dcs, _ := circuitql.DeriveConstraints(q, db)
	os, _ := circuitql.OutputSensitive(ctx, q, dcs)
	n, _ := os.Count(ctx, db)
	out, _ := os.Evaluate(ctx, db)
	fmt.Println(n, out)
	// Output: 2 [A C]{[1 7], [2 7]}
}

// Boolean queries compile to decision circuits.
func ExampleCompileBoolean() {
	ctx := context.Background()
	q, _ := circuitql.ParseQuery("Q() :- R(A,B), S(B,A)")
	r := circuitql.NewRelation("u", "v")
	r.Insert(1, 2)
	s := circuitql.NewRelation("u", "v")
	s.Insert(2, 1)
	db := circuitql.Database{"R": r, "S": s}

	bq, _ := circuitql.CompileBoolean(ctx, q, circuitql.UniformCardinalities(q, 4))
	ok, _ := bq.Decide(ctx, db)
	fmt.Println(ok)
	// Output: true
}

// Degree constraints sharpen the bound: a functional dependency turns
// the triangle's N^{3/2} into N.
func ExampleParseConstraints() {
	ctx := context.Background()
	q, _ := circuitql.ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	dcs := circuitql.UniformCardinalities(q, 1024)
	extra, _ := circuitql.ParseConstraints(q, "R|A <= 1") // A → B in R
	b, _ := circuitql.PolymatroidBound(ctx, q, append(dcs, extra...))
	fmt.Println(b.RatString(), "bits")
	// Output: 10 bits
}
