// Package workload provides deterministic, seeded data generators for
// the experiment harness: uniform and skewed random relations, the
// AGM-tight worst-case triangle instance, functional-dependency-
// respecting data, and ready-made databases for the canonical query
// suite.
package workload

import (
	"math/rand"

	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// UniformBinary returns a binary relation with exactly n distinct tuples
// drawn uniformly from [0, dom)². dom² must be at least n.
func UniformBinary(seed int64, n, dom int) *relation.Relation {
	if dom*dom < n {
		panic("workload: domain too small for requested cardinality")
	}
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("x", "y")
	for r.Len() < n {
		r.Insert(int64(rng.Intn(dom)), int64(rng.Intn(dom)))
	}
	return r
}

// SkewedBinary returns a binary relation with n distinct tuples whose
// first column follows a Zipf-like distribution (heavy hitters), the
// adversarial shape for join processing.
func SkewedBinary(seed int64, n, dom int, s float64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	if s < 1.01 {
		s = 1.01
	}
	z := rand.NewZipf(rng, s, 1, uint64(dom-1))
	r := relation.New("x", "y")
	for tries := 0; r.Len() < n && tries < 100*n; tries++ {
		r.Insert(int64(z.Uint64()), int64(rng.Intn(dom)))
	}
	// Fill up uniformly if the skew exhausted distinct pairs.
	for r.Len() < n {
		r.Insert(int64(rng.Intn(dom)), int64(rng.Intn(dom)))
	}
	return r
}

// FDBinary returns a binary relation with n distinct tuples satisfying
// the functional dependency x → y.
func FDBinary(seed int64, n, dom int) *relation.Relation {
	if dom < n {
		panic("workload: domain too small for an FD relation")
	}
	rng := rand.New(rand.NewSource(seed))
	img := make(map[int64]int64)
	r := relation.New("x", "y")
	for r.Len() < n {
		x := int64(rng.Intn(dom))
		y, ok := img[x]
		if !ok {
			y = int64(rng.Intn(dom))
			img[x] = y
		}
		r.Insert(x, y)
	}
	return r
}

// WorstCaseTriangle returns the AGM-tight triangle instance: with
// side = ⌊√n⌋, each relation is the complete bipartite side×side grid
// (≈ n tuples each) and the output has side³ ≈ n^{3/2} triangles.
func WorstCaseTriangle(n int) query.Database {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	grid := relation.New("x", "y")
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			grid.Insert(int64(a), int64(b))
		}
	}
	return query.Database{"R": grid.Clone(), "S": grid.Clone(), "T": grid.Clone()}
}

// TriangleKind selects the triangle workload shape.
type TriangleKind int

// Triangle workload shapes.
const (
	TriangleUniform TriangleKind = iota
	TriangleSkewed
	TriangleWorstCase
)

// TriangleDB builds a triangle-query database of the requested kind with
// about n tuples per relation over a domain sized for moderate join
// selectivity.
func TriangleDB(kind TriangleKind, seed int64, n int) query.Database {
	switch kind {
	case TriangleWorstCase:
		return WorstCaseTriangle(n)
	case TriangleSkewed:
		dom := domFor(n)
		return query.Database{
			"R": SkewedBinary(seed, n, dom, 1.3),
			"S": SkewedBinary(seed+1, n, dom, 1.3),
			"T": SkewedBinary(seed+2, n, dom, 1.3),
		}
	default:
		dom := domFor(n)
		return query.Database{
			"R": UniformBinary(seed, n, dom),
			"S": UniformBinary(seed+1, n, dom),
			"T": UniformBinary(seed+2, n, dom),
		}
	}
}

// Instance is one seeded request: it parses src, generates a ForQuery
// database of n tuples per relation from seed, and returns the query,
// the constraints that database satisfies (Constraints) and the
// database. A cardinality bound in extraDCs, such as "R <= 40", changes
// the pair's fingerprint without changing what the plan costs.
func Instance(src, extraDCs string, seed int64, n int) (*query.Query, query.DCSet, query.Database, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	db := ForQuery(q, seed, n)
	dcs, err := Constraints(q, db, extraDCs)
	if err != nil {
		return nil, nil, nil, err
	}
	return q, dcs, db, nil
}

// Constraints derives the degree constraints db satisfies for q
// (query.DeriveDC) and appends the ones extraDCs spells in
// query.ParseDC syntax ("" for none).
func Constraints(q *query.Query, db query.Database, extraDCs string) (query.DCSet, error) {
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		return nil, err
	}
	extra, err := query.ParseDC(q, extraDCs)
	if err != nil {
		return nil, err
	}
	return append(dcs, extra...), nil
}

// ForQuery builds a uniform database for any catalog query: one relation
// per distinct atom name, each with n tuples of the atom's arity.
func ForQuery(q *query.Query, seed int64, n int) query.Database {
	db := query.Database{}
	s := seed
	for _, a := range q.Atoms {
		if _, ok := db[a.Name]; ok {
			continue
		}
		db[a.Name] = uniformK(s, n, domFor(n), len(a.Vars))
		s++
	}
	return db
}

func uniformK(seed int64, n, dom, k int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := make([]string, k)
	for i := range schema {
		schema[i] = string(rune('a' + i))
	}
	r := relation.New(schema...)
	row := make([]int64, k)
	for tries := 0; r.Len() < n && tries < 1000*n; tries++ {
		for i := range row {
			row[i] = int64(rng.Intn(dom))
		}
		r.Insert(row...)
	}
	return r
}

// domFor picks a domain giving a join-friendly density.
func domFor(n int) int {
	dom := 2
	for dom*dom < 4*n {
		dom++
	}
	return dom
}

// Random returns a deterministic pseudo-random database for q with at
// most n tuples per distinct atom name, so the instance conforms to
// query.Cardinalities(q, n). Different seeds vary the data shape, not
// just the values: the domain swings between dense (heavy value reuse,
// many join partners) and sparse, per-relation cardinalities range over
// [0, n] — including the occasional empty relation, which the optimizer's
// empty-propagation rewrites must not mishandle — and some relations get
// correlated columns.
func Random(q *query.Query, seed int64, n int) query.Database {
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

// PlantWitness makes Q(db) non-empty: it picks one value per variable
// — each from a seeded tuple of the first atom that holds it, so the
// witness also joins with the data around it — and puts the matching
// tuple into every atom's relation. A relation that already holds n
// tuples drops one of its own instead of growing, so db still conforms
// to query.Cardinalities(q, n). Every relation of db must be non-empty.
func PlantWitness(q *query.Query, db query.Database, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	val := map[int]int64{}
	for _, a := range q.Atoms {
		tuples := db[a.Name].Tuples()
		t := tuples[rng.Intn(len(tuples))]
		for i, v := range a.Vars {
			if _, ok := val[v]; !ok {
				val[v] = t[i]
			}
		}
	}
	for _, a := range q.Atoms {
		row := make([]int64, len(a.Vars))
		for i, v := range a.Vars {
			row[i] = val[v]
		}
		// The witness first, then the relation's own tuples up to n.
		r := relation.New(db[a.Name].Schema()...)
		r.Insert(row...)
		db[a.Name].Each(func(t relation.Tuple) {
			if r.Len() < n {
				r.Insert(t...)
			}
		})
		db[a.Name] = r
	}
}
