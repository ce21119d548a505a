package lp

import (
	"context"
	"math"
	"math/big"
	"testing"
)

// TestNumMatchesBigRat checks every operation of the tableau's number
// type against big.Rat on all pairs of boundary values: the int64
// extremes (MinInt64 itself is never word-sized), the 2^62 neighbourhood
// where sums and products first overflow, large coprime denominators, and
// the twelve-decimal values bound.Log2Rat emits.
func TestNumMatchesBigRat(t *testing.T) {
	ints := []int64{0, 1, -1, 2, 3, -7, 1 << 31, 1<<31 + 11, 1 << 32, 1 << 62, 1<<62 + 1, -(1 << 62),
		math.MaxInt64, math.MaxInt64 - 1, -math.MaxInt64, math.MinInt64, 1_000_000_007, 998_244_353, 1_000_000_000_000}
	var vals []*big.Rat
	for _, n := range ints {
		for _, d := range []int64{1, 2, 3, 1 << 62, math.MaxInt64, 1_000_000_007, 1_000_000_000_000} {
			vals = append(vals, new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)))
		}
	}
	for _, s := range []string{"9.965784284662", "1.584962500721", "-5.321928094887", "36893488147419103232/3", "1/36893488147419103232"} {
		r, _ := new(big.Rat).SetString(s)
		vals = append(vals, r)
	}
	check := func(op string, a, b *big.Rat, got num, want *big.Rat) {
		t.Helper()
		if got.rat().Cmp(want) != 0 {
			t.Fatalf("%v %s %v = %v, want %v", a, op, b, got.rat(), want)
		}
		// The representation is canonical: word-sized exactly when it fits.
		if canon := shrink(new(big.Rat).Set(want)); (got.big == nil) != (canon.big == nil) || (got.big == nil && got != canon) {
			t.Fatalf("%v %s %v = %+v, not the canonical %+v", a, op, b, got, canon)
		}
	}
	for _, ra := range vals {
		a := fromRat(ra)
		check("id", ra, ra, a, ra)
		check("neg", ra, ra, a.neg(), new(big.Rat).Neg(ra))
		if a.sign() != ra.Sign() {
			t.Fatalf("sign(%v) = %d", ra, a.sign())
		}
		for _, rb := range vals {
			b := fromRat(rb)
			check("+", ra, rb, a.add(b), new(big.Rat).Add(ra, rb))
			check("-", ra, rb, a.sub(b), new(big.Rat).Sub(ra, rb))
			check("*", ra, rb, a.mul(b), new(big.Rat).Mul(ra, rb))
			if rb.Sign() != 0 {
				check("/", ra, rb, a.quo(b), new(big.Rat).Quo(ra, rb))
			}
			if got, want := a.cmp(b), ra.Cmp(rb); got != want {
				t.Fatalf("cmp(%v, %v) = %d, want %d", ra, rb, got, want)
			}
		}
	}
}

// TestPromotionMidSolve solves an LP whose right-hand sides carry large
// coprime denominators, so that tableau entries outgrow int64 during the
// pivots, and holds the result to the reference exactly.
func TestPromotionMidSolve(t *testing.T) {
	p := NewProblem(4, Maximize)
	for j, c := range []int64{3, 2, 4, 1} {
		p.SetObjectiveInt(j, c)
	}
	primes := []int64{1_000_000_007, 998_244_353, 2_147_483_647, 1_000_000_009, 999_999_937}
	p.AddLE([]Term{{0, Rat(1, 3)}, {1, Rat(1, 1)}, {2, Rat(2, 7)}}, Rat(4_000_000_000_001, primes[0]))
	p.AddLE([]Term{{0, Rat(1, 1)}, {2, Rat(3, 5)}, {3, Rat(1, 11)}}, Rat(7_000_000_000_003, primes[1]))
	p.AddGE([]Term{{1, Rat(5, 13)}, {2, Rat(1, 1)}, {3, Rat(1, 1)}}, Rat(1_000_000_000_039, primes[2]))
	p.AddEQ([]Term{{0, Rat(1, 17)}, {1, Rat(1, 19)}, {3, Rat(1, 1)}}, Rat(2_000_000_000_003, primes[3]))
	p.AddLE([]Term{{0, Rat(1, 1)}, {1, Rat(1, 1)}, {2, Rat(1, 1)}, {3, Rat(1, 1)}}, Rat(9_000_000_000_011, primes[4]))
	sol := checkAgainstReference(t, "promotion", p)
	if sol.Status != Optimal {
		t.Fatalf("status %v, want an optimum to compare", sol.Status)
	}
	checkStrongDuality(t, p, sol)

	tb, err := newTableau(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tb.a {
		if a.big != nil {
			t.Fatal("an entry is promoted before the first pivot: the inputs should all fit")
		}
	}
	if ok, err := tb.phase1(); err != nil || !ok {
		t.Fatalf("phase 1: feasible %v, err %v", ok, err)
	}
	if _, err := tb.phase2(); err != nil {
		t.Fatal(err)
	}
	promoted := 0
	for _, a := range tb.a {
		if a.big != nil {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no tableau entry was promoted: this LP no longer exercises the overflow path")
	}
}
