package bound

import (
	"context"
	"math/big"
	"testing"

	"circuitql/internal/query"
)

func ratEq(t *testing.T, got *big.Rat, num, den int64, what string) {
	t.Helper()
	if got.Cmp(big.NewRat(num, den)) != 0 {
		t.Fatalf("%s = %v, want %d/%d", what, got, num, den)
	}
}

func TestLog2Rat(t *testing.T) {
	ratEq(t, Log2Rat(1), 0, 1, "log2(1)")
	ratEq(t, Log2Rat(8), 3, 1, "log2(8)")
	ratEq(t, Log2Rat(1024), 10, 1, "log2(1024)")
	// Non-power-of-two: approximately log2(3) ≈ 1.585.
	f, _ := Log2Rat(3).Float64()
	if f < 1.58 || f > 1.59 {
		t.Fatalf("log2(3) ≈ %v", f)
	}
}

// TestTriangleAGM: with uniform cardinalities N, LOGDAPB(Q△) = 1.5 log N
// (the AGM bound N^{3/2}) — the paper's Example 1 and inequality (2).
func TestTriangleAGM(t *testing.T) {
	q := query.Triangle()
	res, err := LogDAPBCtx(context.Background(), q, query.Cardinalities(q, 1024)) // log N = 10
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.LogValue, 15, 1, "LOGDAPB(triangle, N=2^10)")
	if err := res.CheckWitness(q); err != nil {
		t.Fatal(err)
	}
	if got := res.Value(); got != 32768 {
		t.Fatalf("DAPB = %v, want 2^15", got)
	}
}

func TestEdgeCoverNumbers(t *testing.T) {
	cases := []struct {
		q        *query.Query
		num, den int64
	}{
		{query.Triangle(), 3, 2},
		{query.Path2(), 2, 1},
		{query.Star3(), 3, 1},
		{query.Cycle4(), 2, 1},
		{query.LoomisWhitney4(), 4, 3},
	}
	for _, c := range cases {
		rho, err := FractionalEdgeCoverNumber(context.Background(), c.q)
		if err != nil {
			t.Fatalf("%v: %v", c.q, err)
		}
		ratEq(t, rho, c.num, c.den, "ρ*("+c.q.String()+")")
	}
}

// TestUniformCardinalityMatchesAGM: under uniform cardinality constraints
// the polymatroid bound degenerates to the AGM bound N^ρ* (Section 3.2).
func TestUniformCardinalityMatchesAGM(t *testing.T) {
	for _, e := range query.Catalog() {
		q := e.Query
		res, err := LogDAPBCtx(context.Background(), q, query.Cardinalities(q, 256)) // log N = 8
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		rho, err := FractionalEdgeCoverNumber(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Rat).Mul(rho, big.NewRat(8, 1))
		if res.LogValue.Cmp(want) != 0 {
			t.Errorf("%s: LOGDAPB = %v, want ρ*·8 = %v", e.Name, res.LogValue, want)
		}
		if err := res.CheckWitness(q); err != nil {
			t.Errorf("%s: witness: %v", e.Name, err)
		}
	}
}

// TestTriangleWithFD: adding the functional dependency A→B collapses the
// triangle bound from N^1.5 to N.
func TestTriangleWithFD(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 1024)
	ab := query.SetOf(q.VarIndex("A"), q.VarIndex("B"))
	dcs = append(dcs, query.DegreeConstraint{X: query.SetOf(q.VarIndex("A")), Y: ab, N: 1})
	res, err := LogDAPBCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.LogValue, 10, 1, "LOGDAPB(triangle with FD)")
	if err := res.CheckWitness(q); err != nil {
		t.Fatal(err)
	}
}

// TestTriangleWithDegree: deg(BC|B) ≤ 4 with N = 256 gives the bound
// N·d = 2^10 < N^1.5 = 2^12.
func TestTriangleWithDegree(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 256)
	b := query.SetOf(q.VarIndex("B"))
	bc := query.SetOf(q.VarIndex("B"), q.VarIndex("C"))
	dcs = append(dcs, query.DegreeConstraint{X: b, Y: bc, N: 4})
	res, err := LogDAPBCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.LogValue, 10, 1, "LOGDAPB(triangle with degree)")
	if err := res.CheckWitness(q); err != nil {
		t.Fatal(err)
	}
}

// TestHeterogeneousCardinalities: triangle with |R|=2^4, |S|=2^6, |T|=2^8
// has AGM bound 2^((4+6+8)/2) = 2^9.
func TestHeterogeneousCardinalities(t *testing.T) {
	q := query.Triangle()
	idx := func(n string) int { return q.VarIndex(n) }
	dcs := query.DCSet{
		{X: 0, Y: query.SetOf(idx("A"), idx("B")), N: 16},
		{X: 0, Y: query.SetOf(idx("B"), idx("C")), N: 64},
		{X: 0, Y: query.SetOf(idx("A"), idx("C")), N: 256},
	}
	res, err := LogDAPBCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.LogValue, 9, 1, "LOGDAPB(heterogeneous triangle)")
	if err := res.CheckWitness(q); err != nil {
		t.Fatal(err)
	}
}

// TestLogBoundSubTarget: the bound of a sub-target is governed by its
// covering constraints: max h(AB) = log|R_AB|.
func TestLogBoundSubTarget(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 1024)
	ab := query.SetOf(q.VarIndex("A"), q.VarIndex("B"))
	res, err := LogBoundCtx(context.Background(), q, dcs, ab)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res.LogValue, 10, 1, "max h(AB)")
	if err := res.CheckWitness(q); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedWithoutConstraints(t *testing.T) {
	q := query.Triangle()
	// Only one cardinality constraint: C is unconstrained from above.
	dcs := query.DCSet{{X: 0, Y: query.SetOf(0, 1), N: 4}}
	if _, err := LogDAPBCtx(context.Background(), q, dcs); err == nil {
		t.Fatal("expected unbounded error")
	}
}

func TestInvalidInputs(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 4)
	if _, err := LogBoundCtx(context.Background(), q, dcs, 0); err == nil {
		t.Fatal("expected error for empty target")
	}
	bad := query.DCSet{{X: query.SetOf(2), Y: query.SetOf(0, 1), N: 4}}
	if _, err := LogDAPBCtx(context.Background(), q, bad); err == nil {
		t.Fatal("expected error for invalid DC")
	}
}

// TestWitnessDeltaSupportsDC: every δ term multiplies an actual degree
// constraint and the total Σδ·n equals the bound (Theorem 1).
func TestWitnessDeltaSupportsDC(t *testing.T) {
	q := query.Cycle4()
	dcs := query.Cardinalities(q, 64)
	res, err := LogDAPBCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Witness.Delta {
		found := false
		for _, dc := range dcs {
			if dc.X == d.DC.X && dc.Y == d.DC.Y && dc.N == d.DC.N {
				found = true
			}
		}
		if !found {
			t.Fatalf("δ term %+v not among input constraints", d.DC)
		}
	}
	if err := res.CheckWitness(q); err != nil {
		t.Fatal(err)
	}
}

// TestBoundMonotoneInConstraints: loosening a cardinality constraint can
// only increase the bound.
func TestBoundMonotoneInConstraints(t *testing.T) {
	q := query.Triangle()
	small, err := LogDAPBCtx(context.Background(), q, query.Cardinalities(q, 16))
	if err != nil {
		t.Fatal(err)
	}
	large, err := LogDAPBCtx(context.Background(), q, query.Cardinalities(q, 256))
	if err != nil {
		t.Fatal(err)
	}
	if small.LogValue.Cmp(large.LogValue) >= 0 {
		t.Fatalf("bound not monotone: %v vs %v", small.LogValue, large.LogValue)
	}
}
