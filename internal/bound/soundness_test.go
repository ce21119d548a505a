package bound

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// TestBoundSoundOnData: for random instances, the polymatroid bound
// computed from the instance's derived degree constraints must dominate
// the actual output size — |Q(D)| ≤ DAPB(Q) — across the catalog. This
// checks the entire LP formulation against ground truth rather than
// against itself.
func TestBoundSoundOnData(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for _, e := range query.Catalog() {
		q := e.Query
		if q.IsBoolean() {
			continue // output size 0/1, trivially bounded
		}
		full := &query.Query{VarNames: q.VarNames, Free: q.AllVars(), Atoms: q.Atoms}
		for trial := 0; trial < 4; trial++ {
			db := query.Database{}
			for _, a := range q.Atoms {
				if _, ok := db[a.Name]; ok {
					continue
				}
				r := relation.New(schemaFor(len(a.Vars))...)
				for r.Len() < 12 {
					row := make([]int64, len(a.Vars))
					for i := range row {
						row[i] = int64(rng.Intn(5))
					}
					r.Insert(row...)
				}
				db[a.Name] = r
			}
			dcs, err := query.DeriveDC(q, db)
			if err != nil {
				t.Fatal(err)
			}
			res, err := LogDAPBCtx(context.Background(), q, dcs)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out, err := query.EvaluateCtx(context.Background(), full, db)
			if err != nil {
				t.Fatal(err)
			}
			if float64(out.Len()) > res.Value()*(1+1e-9) {
				t.Fatalf("%s trial %d: |Q(D)| = %d exceeds DAPB = %g",
					e.Name, trial, out.Len(), res.Value())
			}
		}
	}
}

// TestBoundTightOnWorstCase: on the AGM-tight triangle instance the
// bound is met within the rounding of ⌊√N⌋ — tightness, not just
// soundness.
func TestBoundTightOnWorstCase(t *testing.T) {
	q := query.Triangle()
	for _, n := range []int{16, 64, 144} {
		side := int(math.Sqrt(float64(n)))
		grid := relation.New("x", "y")
		for a := 0; a < side; a++ {
			for b := 0; b < side; b++ {
				grid.Insert(int64(a), int64(b))
			}
		}
		db := query.Database{"R": grid, "S": grid.Clone(), "T": grid.Clone()}
		dcs, err := query.DeriveDC(q, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := LogDAPBCtx(context.Background(), q, dcs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		want := side * side * side // exactly N^{3/2} triangles
		if out.Len() != want {
			t.Fatalf("n=%d: output %d, want %d", n, out.Len(), want)
		}
		ratio := res.Value() / float64(out.Len())
		if ratio < 1-1e-9 {
			t.Fatalf("n=%d: bound %g below actual %d", n, res.Value(), out.Len())
		}
		// The derived constraints include exact degrees, so the bound
		// should be tight here (no slack beyond rounding).
		if ratio > 1.01 {
			t.Fatalf("n=%d: bound %g not tight against %d (ratio %f)", n, res.Value(), out.Len(), ratio)
		}
	}
}

func schemaFor(k int) []string {
	s := make([]string, k)
	for i := range s {
		s[i] = string(rune('a' + i))
	}
	return s
}
