package bound_test

import (
	"context"
	"testing"

	"circuitql/internal/bound"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// servedCycle4 is the LP input of the repo benchmark's cold-compile
// request: cycle4 over 8-tuple relations, constraints derived from the
// data plus the loose salt constraint, canonicalized as the engine does.
func servedCycle4(tb testing.TB) (*query.Query, query.DCSet) {
	tb.Helper()
	q, dcs, _, err := workload.Instance(query.Cycle4().String(), "R <= 33", 1, 8)
	if err != nil {
		tb.Fatal(err)
	}
	canon, err := query.Canonicalize(q, dcs)
	if err != nil {
		tb.Fatal(err)
	}
	return canon.Query, canon.DCs
}

// TestServedSolveAllocations pins what the word-sized tableau is for: a
// served cycle4 bound, LP build and witness included, allocated 276 k
// times when every tableau entry of every pivot was a fresh big.Rat.
func TestServedSolveAllocations(t *testing.T) {
	q, dcs := servedCycle4(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := bound.LogBoundCtx(context.Background(), q, dcs, q.AllVars()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 3000 {
		t.Fatalf("a cycle4·8 bound allocates %.0f times, want < 3000", allocs)
	}
}

// BenchmarkLPSolve times the bound LP, build to witness, on the shapes
// whose compile it gates: the cold-compile request, a hot-eval triangle
// and E11's largest catalog query.
func BenchmarkLPSolve(b *testing.B) {
	cq, cdcs := servedCycle4(b)
	tri := query.Triangle()
	tdcs, err := query.DeriveDC(tri, workload.ForQuery(tri, 1, 16))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		dcs  query.DCSet
	}{
		{"cycle4_8_salted", cq, cdcs},
		{"triangle_16", tri, tdcs},
		{"bowtie_256", query.Bowtie(), query.Cardinalities(query.Bowtie(), 256)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bound.LogBoundCtx(context.Background(), tc.q, tc.dcs, tc.q.AllVars()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
