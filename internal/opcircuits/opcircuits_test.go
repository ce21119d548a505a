package opcircuits

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/expr"
	"circuitql/internal/relation"
)

// harness builds a circuit over input relations, applies build, and
// decodes the output relation.
type harness struct {
	t      *testing.T
	c      *boolcircuit.Circuit
	inputs []int64
}

func newHarness(t *testing.T) *harness {
	return &harness{t: t, c: boolcircuit.New()}
}

// input allocates an input ORel of the given capacity and packs rel.
func (h *harness) input(rel *relation.Relation, capacity int) ORel {
	h.t.Helper()
	r := NewInput(h.c, rel.Schema(), capacity)
	vals, err := Pack(rel, rel.Schema(), capacity)
	if err != nil {
		h.t.Fatal(err)
	}
	h.inputs = append(h.inputs, vals...)
	return r
}

// run marks out's wires, evaluates, and decodes.
func (h *harness) run(out ORel) *relation.Relation {
	h.t.Helper()
	MarkOutputs(h.c, out)
	vals, err := h.c.EvaluateCtx(context.Background(), h.inputs)
	if err != nil {
		h.t.Fatal(err)
	}
	rel, err := Decode(out.Schema, vals)
	if err != nil {
		h.t.Fatal(err)
	}
	return rel
}

func mustEqual(t *testing.T, got, want *relation.Relation, what string) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
}

func randomRel(rng *rand.Rand, schema []string, n, dom int) *relation.Relation {
	r := relation.New(schema...)
	for i := 0; i < n; i++ {
		row := make([]int64, len(schema))
		for j := range row {
			row[j] = int64(rng.Intn(dom))
		}
		r.Insert(row...)
	}
	return r
}

func TestPackDecodeRoundTrip(t *testing.T) {
	rel := relation.FromTuples([]string{"A", "B"}, relation.Tuple{1, 2}, relation.Tuple{3, 4})
	h := newHarness(t)
	r := h.input(rel, 5)
	got := h.run(r)
	mustEqual(t, got, rel, "round trip")
}

func TestPackErrors(t *testing.T) {
	rel := relation.FromTuples([]string{"A"}, relation.Tuple{1}, relation.Tuple{2})
	if _, err := Pack(rel, []string{"A"}, 1); err == nil {
		t.Fatal("expected capacity error")
	}
	bad := relation.FromTuples([]string{"A"}, relation.Tuple{Sentinel})
	if _, err := Pack(bad, []string{"A"}, 2); err == nil {
		t.Fatal("expected sentinel collision error")
	}
	if _, err := Pack(rel, []string{"Z"}, 4); err == nil {
		t.Fatal("expected missing attribute error")
	}
}

func TestSelectCircuit(t *testing.T) {
	rel := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 10}, relation.Tuple{2, 20}, relation.Tuple{3, 30})
	h := newHarness(t)
	r := h.input(rel, 4)
	out := Select(h.c, r, expr.Ge(expr.Attr("B"), expr.Const(20)))
	got := h.run(out)
	want := relation.FromTuples([]string{"A", "B"}, relation.Tuple{2, 20}, relation.Tuple{3, 30})
	mustEqual(t, got, want, "select")
}

func TestMapCircuit(t *testing.T) {
	rel := relation.FromTuples([]string{"A", "B"}, relation.Tuple{1, 10}, relation.Tuple{2, 20})
	h := newHarness(t)
	r := h.input(rel, 2)
	out := Map(h.c, r, []MapCol{
		{As: "A", E: expr.Attr("A")},
		{As: "S", E: expr.Add(expr.Attr("A"), expr.Attr("B"))},
	})
	got := h.run(out)
	want := relation.FromTuples([]string{"A", "S"}, relation.Tuple{1, 11}, relation.Tuple{2, 22})
	mustEqual(t, got, want, "map")
}

func TestProjectCircuit(t *testing.T) {
	rel := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 10}, relation.Tuple{1, 20}, relation.Tuple{2, 10})
	h := newHarness(t)
	r := h.input(rel, 5)
	out := Project(h.c, r, []string{"A"})
	got := h.run(out)
	mustEqual(t, got, rel.Project("A"), "project")
}

func TestProjectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 10; iter++ {
		rel := randomRel(rng, []string{"A", "B", "C"}, 10, 4)
		h := newHarness(t)
		r := h.input(rel, 12)
		out := Project(h.c, r, []string{"B", "C"})
		mustEqual(t, h.run(out), rel.Project("B", "C"), "random project")
	}
}

func TestUnionCircuit(t *testing.T) {
	a := relation.FromTuples([]string{"A", "B"}, relation.Tuple{1, 2}, relation.Tuple{3, 4})
	b := relation.FromTuples([]string{"B", "A"}, relation.Tuple{2, 1}, relation.Tuple{5, 6})
	h := newHarness(t)
	ra := h.input(a, 3)
	rb := h.input(b, 3)
	out := Union(h.c, ra, rb)
	mustEqual(t, h.run(out), a.Union(b), "union")
}

func TestOrderCircuit(t *testing.T) {
	rel := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{2, 1}, relation.Tuple{1, 2}, relation.Tuple{1, 1})
	h := newHarness(t)
	r := h.input(rel, 3)
	out := Order(h.c, r, []string{"A"})
	got := h.run(out)
	// Positions 1..3 with A ascending; ties broken arbitrarily but both
	// A=1 tuples must come before A=2.
	if got.Len() != 3 {
		t.Fatalf("order output = %v", got)
	}
	posOfA2 := int64(0)
	got.Each(func(tp relation.Tuple) {
		if tp[0] == 2 {
			posOfA2 = tp[2]
		}
		if tp[2] < 1 || tp[2] > 3 {
			t.Fatalf("bad position %v", tp)
		}
	})
	if posOfA2 != 3 {
		t.Fatalf("A=2 should be last, got position %d", posOfA2)
	}
}

func TestTruncateCircuit(t *testing.T) {
	rel := relation.FromTuples([]string{"A"}, relation.Tuple{1}, relation.Tuple{2})
	h := newHarness(t)
	r := h.input(rel, 8) // 6 dummies
	out := Truncate(h.c, r, 2)
	if out.Capacity() != 2 {
		t.Fatalf("capacity = %d", out.Capacity())
	}
	mustEqual(t, h.run(out), rel, "truncate")
}

func TestAggregateCircuits(t *testing.T) {
	rel := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 5}, relation.Tuple{1, 7}, relation.Tuple{2, 3}, relation.Tuple{2, 9})
	cases := []struct {
		kind relation.AggKind
		over string
	}{
		{relation.AggCount, ""},
		{relation.AggSum, "B"},
		{relation.AggMin, "B"},
		{relation.AggMax, "B"},
	}
	for _, cs := range cases {
		h := newHarness(t)
		r := h.input(rel, 6)
		out := Aggregate(h.c, r, []string{"A"}, cs.kind, cs.over, "v")
		got := h.run(out)
		want := rel.Aggregate([]string{"A"}, cs.kind, cs.over, "v")
		mustEqual(t, got, want, "aggregate "+cs.kind.String())
	}
}

func TestAggregateGlobal(t *testing.T) {
	rel := relation.FromTuples([]string{"A"}, relation.Tuple{4}, relation.Tuple{7}, relation.Tuple{1})
	h := newHarness(t)
	r := h.input(rel, 5)
	out := Aggregate(h.c, r, nil, relation.AggSum, "A", "total")
	got := h.run(out)
	want := rel.Aggregate(nil, relation.AggSum, "A", "total")
	mustEqual(t, got, want, "global sum")
}

func TestAggregateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 8; iter++ {
		rel := randomRel(rng, []string{"A", "B"}, 12, 4)
		h := newHarness(t)
		r := h.input(rel, 16)
		out := Aggregate(h.c, r, []string{"A"}, relation.AggCount, "", "count")
		mustEqual(t, h.run(out), rel.GroupCount("A"), "random count")
	}
}

// TestPKJoinPaperExample reproduces Figure 3: R = {(a1,b1),(a1,b2),
// (a2,b1)}, S = {(b1,c1),(b3,c1)} with B the key of S; the join is
// {(a1,b1,c1),(a2,b1,c1)}.
func TestPKJoinPaperExample(t *testing.T) {
	r := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 1}, relation.Tuple{1, 2}, relation.Tuple{2, 1})
	s := relation.FromTuples([]string{"B", "C"},
		relation.Tuple{1, 100}, relation.Tuple{3, 100})
	h := newHarness(t)
	rr := h.input(r, 3)
	ss := h.input(s, 2)
	out := PKJoin(h.c, rr, ss)
	got := h.run(out)
	want := relation.FromTuples([]string{"A", "B", "C"},
		relation.Tuple{1, 1, 100}, relation.Tuple{2, 1, 100})
	mustEqual(t, got, want, "Figure 3 primary-key join")
}

func TestPKJoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 10; iter++ {
		r := randomRel(rng, []string{"A", "B"}, 10, 6)
		// S with unique B values.
		s := relation.New("B", "C")
		for b := 0; b < 6; b++ {
			if rng.Intn(2) == 0 {
				s.Insert(int64(b), int64(rng.Intn(50)))
			}
		}
		h := newHarness(t)
		rr := h.input(r, 12)
		ss := h.input(s, 7)
		out := PKJoin(h.c, rr, ss)
		mustEqual(t, h.run(out), r.NaturalJoin(s), "random pk join")
	}
}

func TestSemijoinCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 10; iter++ {
		r := randomRel(rng, []string{"A", "B"}, 10, 5)
		s := randomRel(rng, []string{"B", "C"}, 10, 5)
		h := newHarness(t)
		rr := h.input(r, 12)
		ss := h.input(s, 12)
		out := Semijoin(h.c, rr, ss)
		mustEqual(t, h.run(out), r.SemiJoin(s), "semijoin")
	}
}

// TestDegJoinPaperExample reproduces Figure 4: M = 3, N = 5,
// R = {(a1,b1),(a2,b2),(a1,b3)}, S over B,C with deg ≤ 5.
func TestDegJoinPaperExample(t *testing.T) {
	r := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 1}, relation.Tuple{2, 2}, relation.Tuple{1, 3})
	s := relation.FromTuples([]string{"B", "C"},
		relation.Tuple{1, 10}, relation.Tuple{1, 20}, relation.Tuple{1, 30},
		relation.Tuple{2, 10}, relation.Tuple{2, 40},
		relation.Tuple{3, 50},
		relation.Tuple{4, 60})
	h := newHarness(t)
	rr := h.input(r, 3)
	ss := h.input(s, 8)
	out := DegJoin(h.c, rr, ss, 5)
	got := h.run(out)
	mustEqual(t, got, r.NaturalJoin(s), "Figure 4 degree-bounded join")
}

func TestDegJoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 12; iter++ {
		r := randomRel(rng, []string{"A", "B"}, 8, 5)
		deg := 1 + rng.Intn(4)
		s := relation.New("B", "C")
		for b := 0; b < 5; b++ {
			d := rng.Intn(deg + 1)
			for k := 0; k < d; k++ {
				s.Insert(int64(b), int64(100*b+k))
			}
		}
		h := newHarness(t)
		rr := h.input(r, 10)
		ss := h.input(s, s.Len()+2)
		out := DegJoin(h.c, rr, ss, deg)
		mustEqual(t, h.run(out), r.NaturalJoin(s), "random degree-bounded join")
	}
}

func TestDegJoinAsSemijoinWhenNoExtras(t *testing.T) {
	r := relation.FromTuples([]string{"A", "B"}, relation.Tuple{1, 2}, relation.Tuple{3, 9})
	s := relation.FromTuples([]string{"B"}, relation.Tuple{2})
	h := newHarness(t)
	rr := h.input(r, 3)
	ss := h.input(s, 2)
	out := DegJoin(h.c, rr, ss, 1)
	mustEqual(t, h.run(out), r.NaturalJoin(s), "deg join without extra attrs")
}

func TestCrossJoinCircuit(t *testing.T) {
	r := relation.FromTuples([]string{"A"}, relation.Tuple{1}, relation.Tuple{2})
	s := relation.FromTuples([]string{"B"}, relation.Tuple{10})
	h := newHarness(t)
	rr := h.input(r, 2)
	ss := h.input(s, 2)
	out := DegJoin(h.c, rr, ss, 2) // no common attrs -> cross product
	mustEqual(t, h.run(out), r.NaturalJoin(s), "cross join")
}

// TestDegJoinSizeSubquadratic: the degree-bounded join circuit must be
// Õ(MN + N'), far below the naive M·N' when the degree is small.
func TestDegJoinSizeSubquadratic(t *testing.T) {
	gatesFor := func(m, nn, deg int) int {
		c := boolcircuit.New()
		r := NewInput(c, []string{"A", "B"}, m)
		s := NewInput(c, []string{"B", "C"}, nn)
		DegJoin(c, r, s, deg)
		return c.Size()
	}
	gSmallDeg := gatesFor(64, 256, 2)
	gBigDeg := gatesFor(64, 256, 64)
	if gSmallDeg >= gBigDeg {
		t.Fatalf("deg-2 join (%d gates) should be smaller than deg-64 join (%d gates)", gSmallDeg, gBigDeg)
	}
}

// TestOperatorsAreOblivious: one circuit, many conforming instances.
func TestOperatorsAreOblivious(t *testing.T) {
	c := boolcircuit.New()
	r := NewInput(c, []string{"A", "B"}, 8)
	s := NewInput(c, []string{"B", "C"}, 8)
	out := DegJoin(c, r, s, 2)
	MarkOutputs(c, out)
	size := c.Size()

	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 5; iter++ {
		rr := randomRel(rng, []string{"A", "B"}, 6, 4)
		ss := relation.New("B", "C")
		for b := 0; b < 4; b++ {
			for k := 0; k < rng.Intn(3); k++ {
				ss.Insert(int64(b), int64(10*b+k))
			}
		}
		rv, err := Pack(rr, []string{"A", "B"}, 8)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := Pack(ss, []string{"B", "C"}, 8)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := c.EvaluateCtx(context.Background(), append(rv, sv...))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(out.Schema, vals)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, got, rr.NaturalJoin(ss), "oblivious reuse")
	}
	if c.Size() != size {
		t.Fatal("circuit changed during evaluation")
	}
}
