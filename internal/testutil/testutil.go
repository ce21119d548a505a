// Package testutil backs the differential-equivalence harness: seeded
// random databases over the query catalog and canonical row renderings
// so every evaluation tier (reference RAM, relational circuit, oblivious
// circuit, optimized circuits) can be compared for exact output
// equality.
package testutil

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// RandomDB returns a deterministic pseudo-random database for q with at
// most n tuples per distinct atom name, so the instance conforms to
// query.Cardinalities(q, n). Different seeds vary the data shape, not
// just the values: the domain swings between dense (heavy value reuse,
// many join partners) and sparse, per-relation cardinalities range over
// [0, n] — including the occasional empty relation, which the optimizer's
// empty-propagation rewrites must not mishandle — and some relations get
// correlated columns.
func RandomDB(q *query.Query, seed int64, n int) query.Database {
	db := query.Database{}
	idx := int64(0)
	for _, a := range q.Atoms {
		if _, ok := db[a.Name]; ok {
			continue
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + idx))
		db[a.Name] = randomRelation(rng, n, len(a.Vars))
		idx++
	}
	return db
}

func randomRelation(rng *rand.Rand, n, arity int) *relation.Relation {
	schema := make([]string, arity)
	for i := range schema {
		schema[i] = string(rune('a' + i))
	}
	r := relation.New(schema...)

	// 1 in 8 relations is empty; the rest carry [1, n] tuples.
	var rows int
	if rng.Intn(8) == 0 {
		rows = 0
	} else {
		rows = 1 + rng.Intn(n)
	}
	// Dense domains force duplicates and many join partners; sparse
	// domains force misses.
	dom := 2 + rng.Intn(2*n)
	correlated := rng.Intn(3) == 0

	row := make([]int64, arity)
	for tries := 0; r.Len() < rows && tries < 1000*n; tries++ {
		for i := range row {
			row[i] = int64(rng.Intn(dom))
		}
		if correlated && arity > 1 {
			row[arity-1] = row[0] // repeat a column: stresses self-join-like keys
		}
		r.Insert(row...)
	}
	return r
}

// Rows renders r as sorted "attr=value" rows with attributes in sorted
// order, a canonical form independent of both tuple order and schema
// column order. Two relations are equal iff their Rows are equal.
func Rows(r *relation.Relation) []string {
	attrs := r.Schema()
	sort.Strings(attrs)
	out := make([]string, 0, r.Len())
	r.Each(func(t relation.Tuple) {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = fmt.Sprintf("%s=%d", a, r.Value(t, a))
		}
		out = append(out, strings.Join(parts, ","))
	})
	sort.Strings(out)
	return out
}

// DiffRows reports the first divergence between two canonical row lists,
// or "" when they match. got/want label the two sides in the message.
func DiffRows(wantRows, gotRows []string, want, got string) string {
	if len(wantRows) != len(gotRows) {
		return fmt.Sprintf("%s has %d rows, %s has %d", want, len(wantRows), got, len(gotRows))
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			return fmt.Sprintf("row %d: %s has %q, %s has %q", i, want, wantRows[i], got, gotRows[i])
		}
	}
	return ""
}
