package query

import "testing"

func TestParseDC(t *testing.T) {
	q := Triangle()
	dcs, err := ParseDC(q, "R <= 100; S <= 50; T <= 100; S|B <= 4; R|A <= 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 5 {
		t.Fatalf("constraints = %d", len(dcs))
	}
	// S|B <= 4.
	found := false
	for _, dc := range dcs {
		if dc.Y == SetOf(1, 2) && dc.X == SetOf(1) && dc.N == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("degree constraint missing: %v", dcs)
	}
}

func TestParseDCParenthesized(t *testing.T) {
	q := MustParse("Q(A1,B1,C1) :- R(A1,B1), S(B1,C1)")
	dcs, err := ParseDC(q, "R <= 10; S <= 10; S|(B1) <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 3 {
		t.Fatalf("constraints = %v", dcs)
	}
}

func TestParseDCSelfJoinAppliesToAllAtoms(t *testing.T) {
	q := MustParse("Q(A,B,C) :- E(A,B), E(B,C)")
	dcs, err := ParseDC(q, "E <= 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 2 {
		t.Fatalf("self-join should yield 2 constraints, got %d", len(dcs))
	}
}

// TestParseDCRepeatedVarSetOnce: atoms that repeat a relation over one
// variable set take a named constraint once, so a canonical pair's text
// (FormatDC of its constraints) parses back to the same fingerprint,
// as a stored plan's header must.
func TestParseDCRepeatedVarSetOnce(t *testing.T) {
	q := MustParse("Q(A,B,C) :- R(A,B), R(B,A), S(B,C)")
	dcs, err := ParseDC(q, "R <= 8; R|A <= 4; S <= 8")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 3 {
		t.Fatalf("constraints = %v, want one per entry", dcs)
	}
	canon, err := Canonicalize(q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(canon.Query.String())
	if err != nil {
		t.Fatal(err)
	}
	redcs, err := ParseDC(back, FormatDC(canon.Query, canon.DCs))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Canonicalize(back, redcs)
	if err != nil {
		t.Fatal(err)
	}
	if again.FP != canon.FP {
		t.Fatalf("the canonical text reparses to %v, fingerprint %s; want %v, %s",
			redcs, again.FP.Short(), canon.DCs, canon.FP.Short())
	}
}

func TestParseDCErrors(t *testing.T) {
	q := Triangle()
	bad := []string{
		"R 100",    // no <=
		"R <= ten", // bad number
		"Z <= 5",   // unknown relation
		"R|C <= 2", // C not among R's vars
		"R|Q <= 2", // unknown variable
		"R <= 0.5", // bound below 1 (Validate)
	}
	for _, src := range bad {
		if _, err := ParseDC(q, src); err == nil {
			t.Errorf("ParseDC(%q) accepted", src)
		}
	}
}

func FuzzParse(f *testing.F) {
	seeds := []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
		"Q() :- R(A,B)",
		"Q(A) :- R(A,A)",
		"Q(A,B) :- R(A,B), R(B,A).",
		"Q(X1, Y_2) :- Edge(X1, Y_2)",
		"Q(A :- R(A)",
		"::-",
		"Q(A) :- R(A), S(A,B,C,D,E,F,G,H,I,J,K,L,M,N,O,P,Q2,R2,S2,T2,U,V,W,X,Y)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		// Whatever parses must validate and round-trip through String.
		if err := q.Validate(); err != nil {
			t.Fatalf("parsed query fails validation: %v (src %q)", err, src)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("String() not reparseable: %v (query %q)", err, q.String())
		}
		if q2.String() != q.String() {
			t.Fatalf("round trip changed query: %q vs %q", q.String(), q2.String())
		}
	})
}
