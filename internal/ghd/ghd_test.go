package ghd

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

// TestEnumerateValidates: every enumerated decomposition of every catalog
// query satisfies Definition 1 (checked structurally).
func TestEnumerateValidates(t *testing.T) {
	for _, e := range query.Catalog() {
		decomps := Enumerate(e.Query, 0)
		if len(decomps) == 0 {
			t.Errorf("%s: no decompositions", e.Name)
			continue
		}
		for i := range decomps {
			if err := decomps[i].Validate(e.Query); err != nil {
				t.Errorf("%s decomp %d (%s): %v", e.Name, i,
					decomps[i].Label(e.Query.VarNames), err)
			}
		}
	}
}

func TestFhtwValues(t *testing.T) {
	cases := []struct {
		q        *query.Query
		num, den int64
	}{
		{query.Triangle(), 3, 2},       // cyclic: one bag ABC, cover 3/2
		{query.Path2(), 1, 1},          // acyclic: bags AB, BC
		{query.Path3(), 1, 1},          // acyclic
		{query.Star3(), 1, 1},          // acyclic
		{query.Cycle4(), 2, 1},         // fhtw of the 4-cycle is 2 (its subw is 3/2)
		{query.LoomisWhitney4(), 4, 3}, // single bag, cover 4/3
	}
	for _, c := range cases {
		w, d, err := FhtwCtx(context.Background(), c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if err := d.Validate(c.q); err != nil {
			t.Fatalf("%s: witness invalid: %v", c.q, err)
		}
		ratEq(t, w, c.num, c.den, "fhtw("+c.q.String()+")")
	}
}

// TestFreeConnexRaisesWidth: the paper notes that restricting to
// free-connex GHDs can increase the width. Q(A,C) :- R(A,B), S(B,C) is
// acyclic (fhtw 1 as a full query) but its free-connex width is 2.
func TestFreeConnexRaisesWidth(t *testing.T) {
	full, _, err := FhtwCtx(context.Background(), query.Path2())
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, full, 1, 1, "fhtw(full path2)")
	proj, d, err := FhtwCtx(context.Background(), query.Path2Projected())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(query.Path2Projected()); err != nil {
		t.Fatal(err)
	}
	ratEq(t, proj, 2, 1, "free-connex fhtw(path2 projected)")
}

// TestDAFhtwUniformMatchesFhtw: under uniform cardinalities N, da-fhtw =
// fhtw · log N.
func TestDAFhtwUniformMatchesFhtw(t *testing.T) {
	for _, e := range []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path3", Query: query.Path3()},
		{Name: "cycle4", Query: query.Cycle4()},
	} {
		q := e.Query
		fw, _, err := FhtwCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		dw, d, err := DAFhtwCtx(context.Background(), q, query.Cardinalities(q, 256))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(q); err != nil {
			t.Fatal(err)
		}
		want := new(big.Rat).Mul(fw, big.NewRat(8, 1))
		if dw.Cmp(want) != 0 {
			t.Errorf("%s: da-fhtw = %v, want %v", e.Name, dw, want)
		}
	}
}

// TestDAFhtwDegreeAware: a functional dependency reduces da-fhtw below
// fhtw·log N.
func TestDAFhtwDegreeAware(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 256)
	a := query.SetOf(q.VarIndex("A"))
	ab := query.SetOf(q.VarIndex("A"), q.VarIndex("B"))
	dcs = append(dcs, query.DegreeConstraint{X: a, Y: ab, N: 1})
	dw, _, err := DAFhtwCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, dw, 8, 1, "da-fhtw(triangle with FD, N=2^8)") // N not N^1.5
}

// TestDASubwCycle4: the 4-cycle's submodular width is 3/2 under uniform
// cardinalities — equal to fhtw here; and da-subw ≤ da-fhtw always.
func TestDASubwCycle4(t *testing.T) {
	q := query.Cycle4()
	dcs := query.Cardinalities(q, 256)
	sw, err := DASubwCtx(context.Background(), q, dcs, 24)
	if err != nil {
		t.Fatal(err)
	}
	fw, _, err := DAFhtwCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cmp(fw) > 0 {
		t.Fatalf("da-subw %v > da-fhtw %v", sw, fw)
	}
	ratEq(t, sw, 12, 1, "da-subw(cycle4, N=2^8)") // 1.5 · 8 bits
}

// TestDASubwBelowFhtwWithFDs: with strong degree constraints the
// submodular width drops with the fhtw.
func TestDASubwTriangle(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 16)
	sw, err := DASubwCtx(context.Background(), q, dcs, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Triangle has a single-bag decomposition; subw = 1.5·4 = 6 bits.
	ratEq(t, sw, 6, 1, "da-subw(triangle, N=2^4)")
}

func TestPostOrder(t *testing.T) {
	d := &Decomp{
		Bags:   []query.VarSet{query.SetOf(0), query.SetOf(1), query.SetOf(2)},
		Parent: []int{-1, 0, 1},
	}
	po := d.PostOrder()
	if len(po) != 3 || po[0] != 2 || po[1] != 1 || po[2] != 0 {
		t.Fatalf("PostOrder = %v", po)
	}
	if ch := d.Children(0); len(ch) != 1 || ch[0] != 1 {
		t.Fatalf("Children(0) = %v", ch)
	}
}

func TestValidateRejectsBadDecomps(t *testing.T) {
	q := query.Triangle()
	bad := []*Decomp{
		{Bags: []query.VarSet{query.SetOf(0, 1)}, Parent: []int{-1}},                       // misses edges
		{Bags: []query.VarSet{query.SetOf(0, 1, 2)}, Parent: []int{0}},                     // root not -1
		{Bags: []query.VarSet{query.SetOf(0, 1, 2), query.SetOf(0)}, Parent: []int{-1, 5}}, // bad parent
	}
	for i, d := range bad {
		if err := d.Validate(q); err == nil {
			t.Errorf("bad decomp %d validated", i)
		}
	}
	// Disconnected occurrence of a variable.
	disc := &Decomp{
		Bags:   []query.VarSet{query.SetOf(0, 1, 2), query.SetOf(1), query.SetOf(0, 1)},
		Parent: []int{-1, 0, 1},
	}
	_ = disc // variable 0 appears in bags 0 and 2 but not 1: disconnected
	if err := disc.Validate(q); err == nil {
		t.Error("disconnected decomposition validated")
	}
}

func TestEnumerateCap(t *testing.T) {
	got := Enumerate(query.Cycle4(), 2)
	if len(got) > 2 {
		t.Fatalf("cap ignored: %d decomps", len(got))
	}
}

func TestBooleanQueryDecomps(t *testing.T) {
	q := query.BooleanTriangle()
	decomps := Enumerate(q, 0)
	if len(decomps) == 0 {
		t.Fatal("no decompositions for Boolean triangle")
	}
	for i := range decomps {
		if err := decomps[i].Validate(q); err != nil {
			t.Fatalf("decomp %d: %v", i, err)
		}
	}
}
