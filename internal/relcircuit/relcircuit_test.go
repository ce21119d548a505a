package relcircuit

import (
	"context"
	"strings"
	"testing"

	"circuitql/internal/expr"
	"circuitql/internal/relation"
)

func db2(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	r := relation.New("A", "B")
	r.Insert(1, 10)
	r.Insert(2, 10)
	r.Insert(3, 30)
	s := relation.New("B", "C")
	s.Insert(10, 100)
	s.Insert(10, 200)
	s.Insert(30, 300)
	return map[string]*relation.Relation{"R": r, "S": s}
}

func TestSelectProjectJoinEvaluate(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(3))
	s := c.Input("S", []string{"B", "C"}, Card(3))
	sel := c.Select(r, expr.Lt(expr.Attr("A"), expr.Const(3)), Card(3))
	j := c.Join(sel, s, Card(9))
	p := c.Project(j, []string{"A", "C"}, Card(9))
	c.MarkOutput(p)

	out, err := c.EvaluateCtx(context.Background(), db2(t), true)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromTuples([]string{"A", "C"},
		relation.Tuple{1, 100}, relation.Tuple{1, 200},
		relation.Tuple{2, 100}, relation.Tuple{2, 200})
	if !out[p].Equal(want) {
		t.Fatalf("output = %v, want %v", out[p], want)
	}
}

func TestBoundViolationDetected(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(2)) // actual has 3 tuples
	c.MarkOutput(r)
	if _, err := c.EvaluateCtx(context.Background(), db2(t), true); err == nil {
		t.Fatal("expected cardinality bound violation")
	}
	// Unchecked evaluation succeeds.
	if _, err := c.EvaluateCtx(context.Background(), db2(t), false); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeBoundViolation(t *testing.T) {
	c := New()
	s := c.Input("S", []string{"B", "C"}, Card(3).WithDeg([]string{"B"}, 1)) // deg_B = 2 actually
	c.MarkOutput(s)
	if _, err := c.EvaluateCtx(context.Background(), db2(t), true); err == nil {
		t.Fatal("expected degree bound violation")
	}
}

func TestDegOnUsesTightestApplicable(t *testing.T) {
	b := Card(100).WithDeg([]string{"B"}, 5).WithDeg([]string{"B", "C"}, 3)
	if got := b.DegOn([]string{"B", "C", "D"}); got != 3 {
		t.Fatalf("DegOn(BCD) = %g, want 3", got)
	}
	if got := b.DegOn([]string{"B"}); got != 5 {
		t.Fatalf("DegOn(B) = %g, want 5", got)
	}
	if got := b.DegOn([]string{"C"}); got != 100 {
		t.Fatalf("DegOn(C) = %g, want card 100", got)
	}
}

func TestJoinCostModel(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(8))
	s := c.Input("S", []string{"B", "C"}, Card(20).WithDeg([]string{"B"}, 2))
	j := c.Join(r, s, Card(16))
	_ = j
	g := c.Gates[j]
	// Cost = M·N + N' = 8·2 + 20 = 36.
	if got := c.GateCost(g); got != 36 {
		t.Fatalf("join cost = %g, want 36", got)
	}
	// Without the degree bound the model falls back to deg ≤ card.
	c2 := New()
	r2 := c2.Input("R", []string{"A", "B"}, Card(8))
	s2 := c2.Input("S", []string{"B", "C"}, Card(20))
	j2 := c2.Join(r2, s2, Card(160))
	if got := c2.GateCost(c2.Gates[j2]); got != 8*20+20 {
		t.Fatalf("join cost = %g, want 180", got)
	}
}

func TestUnaryAndUnionCosts(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(7))
	s := c.Input("S2", []string{"A", "B"}, Card(5))
	sel := c.Select(r, expr.Const(1), Card(7))
	u := c.Union(sel, s, Card(12))
	if got := c.GateCost(c.Gates[sel]); got != 7 {
		t.Fatalf("select cost = %g", got)
	}
	if got := c.GateCost(c.Gates[u]); got != 12 {
		t.Fatalf("union cost = %g", got)
	}
	if got := c.Cost(); got != 19 {
		t.Fatalf("total cost = %g, want 19", got)
	}
}

func TestOrderGate(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(3))
	o := c.Order(r, []string{"B"}, Card(3))
	c.MarkOutput(o)
	out, err := c.EvaluateCtx(context.Background(), db2(t), true)
	if err != nil {
		t.Fatal(err)
	}
	res := out[o]
	if !res.HasAttr(relation.OrderAttr) {
		t.Fatal("order column missing")
	}
	// (1,10) and (2,10) sort before (3,30); positions 1..3.
	if !res.Has(1, 10, 1) || !res.Has(2, 10, 2) || !res.Has(3, 30, 3) {
		t.Fatalf("order = %v", res)
	}
}

func TestAggGate(t *testing.T) {
	c := New()
	s := c.Input("S", []string{"B", "C"}, Card(3))
	a := c.Agg(s, []string{"B"}, relation.AggCount, "", "count", Card(3))
	c.MarkOutput(a)
	out, err := c.EvaluateCtx(context.Background(), db2(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if !out[a].Has(10, 2) || !out[a].Has(30, 1) {
		t.Fatalf("agg = %v", out[a])
	}
}

func TestMapGate(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(3))
	m := c.Map(r, []MapExpr{
		{As: "A", E: expr.Attr("A")},
		{As: "double", E: expr.Mul(expr.Attr("B"), expr.Const(2))},
	}, Card(3))
	c.MarkOutput(m)
	out, err := c.EvaluateCtx(context.Background(), db2(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if !out[m].Has(1, 20) || !out[m].Has(3, 60) {
		t.Fatalf("map = %v", out[m])
	}
}

func TestDepthAndSize(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(3))
	s := c.Input("S", []string{"B", "C"}, Card(3))
	j := c.Join(r, s, Card(9))
	p := c.Project(j, []string{"A"}, Card(9))
	c.MarkOutput(p)
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	if c.Depth() != 2 {
		t.Fatalf("Depth = %d", c.Depth())
	}
	st := c.StatsOf()
	if st.Gates != 4 || st.Depth != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() {
			c := New()
			r := c.Input("R", []string{"A"}, Card(1))
			c.Project(r, []string{"Z"}, Card(1))
		},
		func() {
			c := New()
			r := c.Input("R", []string{"A"}, Card(1))
			s := c.Input("S", []string{"B"}, Card(1))
			c.Union(r, s, Card(2))
		},
		func() {
			c := New()
			r := c.Input("R", []string{"A"}, Card(1))
			c.Select(r, expr.Attr("Z"), Card(1))
		},
		func() {
			c := New()
			r := c.Input("R", []string{"A"}, Card(1))
			c.Agg(r, []string{"A"}, relation.AggSum, "Z", "s", Card(1))
		},
		func() {
			c := New()
			c.MarkOutput(7)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMissingRelation(t *testing.T) {
	c := New()
	g := c.Input("Missing", []string{"A"}, Card(1))
	c.MarkOutput(g)
	if _, err := c.EvaluateCtx(context.Background(), map[string]*relation.Relation{}, false); err == nil {
		t.Fatal("expected missing relation error")
	}
}

func TestStringRendering(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(3))
	c.MarkOutput(r)
	if s := c.String(); !strings.Contains(s, "g0: input R") {
		t.Fatalf("String = %q", s)
	}
}

func TestCeil(t *testing.T) {
	if Ceil(3.0000000001) != 3 || Ceil(3.5) != 4 || Ceil(0.2) != 1 {
		t.Fatal("Ceil wrong")
	}
}
