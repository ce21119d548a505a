package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/relation"
)

func randomBinary(rng *rand.Rand, n, dom int) *relation.Relation {
	r := relation.New("x", "y")
	for r.Len() < n {
		r.Insert(int64(rng.Intn(dom)), int64(rng.Intn(dom)))
	}
	return r
}

// endToEnd compiles q for db's derived constraints and checks the
// oblivious circuit output against the reference evaluator.
func endToEnd(t *testing.T, q *query.Query, db query.Database) *Compiled {
	t.Helper()
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileQueryCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := cq.EvaluateObliviousCtx(context.Background(), db)
	if err != nil {
		t.Fatalf("oblivious eval: %v", err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("oblivious output %v ≠ reference %v", got, want)
	}
	rel, err := cq.EvaluateRelationalCtx(context.Background(), db, true)
	if err != nil {
		t.Fatalf("relational eval: %v", err)
	}
	if !rel.Equal(want) {
		t.Fatalf("relational output mismatch")
	}
	return cq
}

func TestEndToEndTriangle(t *testing.T) {
	db := query.Database{
		"R": relation.FromTuples([]string{"x", "y"},
			relation.Tuple{1, 2}, relation.Tuple{1, 3}, relation.Tuple{4, 5}, relation.Tuple{2, 2}),
		"S": relation.FromTuples([]string{"x", "y"},
			relation.Tuple{2, 3}, relation.Tuple{3, 4}, relation.Tuple{2, 2}, relation.Tuple{5, 1}),
		"T": relation.FromTuples([]string{"x", "y"},
			relation.Tuple{1, 3}, relation.Tuple{4, 6}, relation.Tuple{2, 2}, relation.Tuple{1, 4}),
	}
	cq := endToEnd(t, query.Triangle(), db)
	t.Logf("triangle oblivious circuit: %d gates, depth %d",
		cq.Obliv.C.Size(), cq.Obliv.C.Depth())
}

func TestEndToEndTriangleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 3; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 12, 6),
			"S": randomBinary(rng, 12, 6),
			"T": randomBinary(rng, 12, 6),
		}
		endToEnd(t, query.Triangle(), db)
	}
}

func TestEndToEndPath2(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := query.Database{
		"R": randomBinary(rng, 15, 6),
		"S": randomBinary(rng, 15, 6),
	}
	endToEnd(t, query.Path2(), db)
}

func TestEndToEndStar3(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := query.Database{
		"R": randomBinary(rng, 10, 5),
		"S": randomBinary(rng, 10, 5),
		"T": randomBinary(rng, 10, 5),
	}
	endToEnd(t, query.Star3(), db)
}

// TestObliviousReuseAcrossInstances: Theorem 4's uniformity — one circuit
// per (Q, DC), correct on every conforming instance.
func TestObliviousReuseAcrossInstances(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 10)
	cq, err := CompileQueryCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	size := cq.Obliv.C.Size()
	rng := rand.New(rand.NewSource(79))
	for iter := 0; iter < 4; iter++ {
		db := query.Database{
			"R": randomBinary(rng, 10, 5),
			"S": randomBinary(rng, 10, 5),
			"T": randomBinary(rng, 10, 5),
		}
		got, err := cq.EvaluateObliviousCtx(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d mismatch", iter)
		}
	}
	if cq.Obliv.C.Size() != size {
		t.Fatal("circuit mutated by evaluation")
	}
}

// TestDepthIsPolylog: oblivious circuit depth must grow polylog in N
// (Theorem 4): depth(2N) - depth(N) should be a modest additive amount,
// nothing close to doubling.
func TestDepthIsPolylog(t *testing.T) {
	depthFor := func(n float64) int {
		q := query.Triangle()
		cq, err := CompileQueryCtx(context.Background(), q, query.Cardinalities(q, n))
		if err != nil {
			t.Fatal(err)
		}
		return cq.Obliv.C.Depth()
	}
	d8, d32 := depthFor(8), depthFor(32)
	if d32 > 3*d8 {
		t.Fatalf("depth grows too fast: %d -> %d", d8, d32)
	}
	// And it is far below the size (a sequential circuit would have
	// depth ~ size).
	q := query.Triangle()
	cq, err := CompileQueryCtx(context.Background(), q, query.Cardinalities(q, 32))
	if err != nil {
		t.Fatal(err)
	}
	if cq.Obliv.C.Depth() > cq.Obliv.C.Size()/10 {
		t.Fatalf("depth %d vs size %d: not parallel", cq.Obliv.C.Depth(), cq.Obliv.C.Size())
	}
}

// TestBrentSchedule: steps(P) ≤ W/P + D and is monotone in P, with
// near-linear speedup while P ≪ W/D.
func TestBrentSchedule(t *testing.T) {
	q := query.Triangle()
	cq, err := CompileQueryCtx(context.Background(), q, query.Cardinalities(q, 16))
	if err != nil {
		t.Fatal(err)
	}
	c := cq.Obliv.C
	w := 0
	for _, l := range c.LevelSizes() {
		w += l
	}
	d := c.Depth()
	prev := math.MaxInt
	for _, p := range []int{1, 2, 4, 16, 64, 1 << 20} {
		steps := BrentSchedule(c, p)
		if steps > w/p+d {
			t.Fatalf("P=%d: steps %d > W/P+D = %d", p, steps, w/p+d)
		}
		if steps > prev {
			t.Fatalf("steps not monotone at P=%d", p)
		}
		prev = steps
	}
	if BrentSchedule(c, 1) != w {
		t.Fatalf("P=1 should take exactly W=%d steps, got %d", w, BrentSchedule(c, 1))
	}
	if BrentSchedule(c, 1<<30) != d {
		t.Fatalf("P=∞ should take exactly D=%d steps, got %d", d, BrentSchedule(c, 1<<30))
	}
}

func TestEvaluateMissingRelation(t *testing.T) {
	q := query.Triangle()
	cq, err := CompileQueryCtx(context.Background(), q, query.Cardinalities(q, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cq.Obliv.EvaluateCtx(context.Background(), map[string]*relation.Relation{}); err == nil {
		t.Fatal("expected missing relation error")
	}
}

// TestCapacityOverflowRejected: feeding more tuples than the compiled
// bound fails loudly instead of silently truncating.
func TestCapacityOverflowRejected(t *testing.T) {
	q := query.Triangle()
	cq, err := CompileQueryCtx(context.Background(), q, query.Cardinalities(q, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	db := query.Database{
		"R": randomBinary(rng, 9, 6),
		"S": randomBinary(rng, 3, 6),
		"T": randomBinary(rng, 3, 6),
	}
	if _, err := cq.EvaluateObliviousCtx(context.Background(), db); err == nil {
		t.Fatal("expected capacity error")
	}
}

// TestPackObliviousBrokenInputIsInternal: PackOblivious has one route. An
// oblivious input that names no atom's input, or carries an attribute
// its atom lacks, is a broken plan, and packing returns a typed
// guard.ErrInternal naming the input instead of packing some other way.
func TestPackObliviousBrokenInputIsInternal(t *testing.T) {
	q := query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	db := query.Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}, relation.Tuple{1, 3}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}, relation.Tuple{3, 4}),
		"T": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 3}, relation.Tuple{1, 4}),
	}
	for _, c := range []struct {
		name   string
		tamper func(*InputSpec)
	}{
		{"unknown input", func(s *InputSpec) { s.Name = "bogus" }},
		{"unknown attribute", func(s *InputSpec) { s.Schema = append([]string{"bogus"}, s.Schema[1:]...) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cq := endToEnd(t, q, db)
			spec := &cq.Obliv.Inputs[0]
			c.tamper(spec)
			_, err := cq.PackOblivious(db)
			if !errors.Is(err, guard.ErrInternal) {
				t.Fatalf("tampered input spec: err = %v, want ErrInternal", err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", spec.Name)) {
				t.Fatalf("error %q does not name the input %q", err, spec.Name)
			}
		})
	}
}
