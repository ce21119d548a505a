package lp_test

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"circuitql/internal/bound"
	"circuitql/internal/ghd"
	"circuitql/internal/guard"
	"circuitql/internal/lp"
	"circuitql/internal/qos/soaktest"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// boundLP is the LP bound.LogBoundCtx solves for the full variable set.
func boundLP(q *query.Query, dcs query.DCSet) *lp.Problem {
	p := bound.PolymatroidLP(q, dcs, 0)
	p.SetObjectiveInt(p.NumVars()-1, 1)
	return p
}

// TestSolveMatchesReference holds the solver to the big.Rat solver it
// replaced, on the LPs this system solves and on random ones: equal
// status, objective, primal, dual and pivot count.
func TestSolveMatchesReference(t *testing.T) {
	// The matrix: every catalog query under uniform cardinalities and
	// under constraints derived from seeded data, 870 LPs and about a
	// minute, nearly all of it the reference on the one five-variable
	// query, the bowtie. Under -short, and under the race detector (eight
	// minutes for nothing: neither solver shares state), the bowtie keeps
	// two of the twenty seeds and two of the seven cardinalities, 793 LPs.
	t.Run("matrix", func(t *testing.T) {
		solved := 0
		for _, e := range query.Catalog() {
			reduced := e.Query.NVars() > 4 && (testing.Short() || raceEnabled)
			seeds := int64(20)
			if reduced {
				seeds = 2
			}
			for _, n := range []float64{2, 3, 7, 16, 100, 256, 1000} {
				if reduced && n != 7 && n != 1000 {
					continue
				}
				lp.CheckAgainstReference(t, fmt.Sprintf("%s/N=%g", e.Name, n), boundLP(e.Query, query.Cardinalities(e.Query, n)))
				solved++
			}
			for _, tuples := range []int{4, 8, 16, 40} {
				for seed := int64(1); seed <= seeds; seed++ {
					dcs, err := query.DeriveDC(e.Query, workload.ForQuery(e.Query, seed, tuples))
					if err != nil {
						t.Fatal(err)
					}
					lp.CheckAgainstReference(t, fmt.Sprintf("%s/%d tuples/seed %d", e.Name, tuples, seed), boundLP(e.Query, dcs))
					solved++
				}
			}
		}
		t.Logf("%d LPs", solved)
	})

	// The six shapes the repo benchmark serves, two data seeds each,
	// canonicalized and under a salt DC as the cold-compile workload
	// sends them.
	t.Run("served", func(t *testing.T) {
		for _, served := range []struct {
			src    string
			tuples int
		}{
			{"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
			{"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 12},
			{"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 4},
			{"Q(A,B) :- R(A,B), S(A,B)", 4},
			{"Q(A,B,C) :- R(A,B), S(B,C)", 4},
			{"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", 8},
		} {
			for seed := int64(1); seed <= 2; seed++ {
				lp.CheckAgainstReference(t, fmt.Sprintf("%s/%d tuples/seed %d", served.src, served.tuples, seed), servedLP(t, served.src, seed, served.tuples))
			}
		}
	})

	// E12's da-subw: ghd.selectorValue maximizes z under z ≤ h(bag) for
	// one bag of each decomposition. Every choice of the k-th bag
	// (cyclically) across the decompositions, and every single bag.
	t.Run("selectors", func(t *testing.T) {
		for _, q := range []*query.Query{query.Triangle(), query.Path3(), query.Star3(), query.Cycle4(), query.Path2Projected(), query.Path3Endpoints()} {
			dcs := query.Cardinalities(q, 256)
			decomps := ghd.Enumerate(q, 16)
			var selectors [][]query.VarSet
			for k := 0; k < 4; k++ {
				var sel []query.VarSet
				for _, d := range decomps {
					sel = append(sel, d.Bags[k%len(d.Bags)])
				}
				selectors = append(selectors, sel)
			}
			for _, d := range decomps {
				for _, bag := range d.Bags {
					selectors = append(selectors, []query.VarSet{bag})
				}
			}
			for i, sel := range selectors {
				p := bound.PolymatroidLP(q, dcs, 1)
				z := p.NumVars() - 1
				p.SetObjectiveInt(z, 1)
				for _, bag := range sel {
					p.AddGE([]lp.Term{{Var: int(bag) - 1, Coef: lp.Rat(1, 1)}, {Var: z, Coef: lp.Rat(-1, 1)}}, new(big.Rat))
				}
				lp.CheckAgainstReference(t, fmt.Sprintf("%s/selector %d", q, i), p)
			}
		}
	})

	// Random LPs of either sense with ≤, ≥ and = rows, negative
	// right-hand sides, and infeasible and unbounded cases.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		seen := map[lp.Status]int{}
		for i := 0; i < 600; i++ {
			sol := lp.CheckAgainstReference(t, fmt.Sprintf("random %d", i), lp.RandomProblem(rng, i%6 != 0))
			seen[sol.Status]++
		}
		for _, st := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded} {
			if seen[st] < 20 {
				t.Errorf("only %d of 600 random LPs were %v: the generator no longer covers it", seen[st], st)
			}
		}
	})
}

// servedLP is the bound LP of a served shape: constraints derived from
// the seeded data plus the salt DC of a cold-compile request,
// canonicalized as the engine does.
func servedLP(t testing.TB, src string, seed int64, tuples int) *lp.Problem {
	t.Helper()
	req, err := soaktest.MakeRequest(src, seed, tuples, int(32+seed))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := query.Canonicalize(req.Query, req.DCs)
	if err != nil {
		t.Fatal(err)
	}
	return boundLP(canon.Query, canon.DCs)
}

// servedCycle4LP is the cold-compile workload's LP: 15 variables, 41 rows.
func servedCycle4LP(t testing.TB) *lp.Problem {
	return servedLP(t, query.Cycle4().String(), 1, 8)
}

// TestPivotBudgetTripsWhereItDid charges the same budget at the same
// points as the reference: under every pivot budget k, both solvers fail
// or both succeed, having charged the same number of pivots.
func TestPivotBudgetTripsWhereItDid(t *testing.T) {
	p := servedCycle4LP(t)
	unlimited := &guard.Budget{MaxLPPivots: 1 << 30}
	if _, err := p.SolveCtx(guard.WithBudget(context.Background(), unlimited)); err != nil {
		t.Fatal(err)
	}
	total := unlimited.Pivots()
	if total < 40 {
		t.Fatalf("the served cycle4 LP charged %d pivots; it used to take 57 and two final checks", total)
	}
	for k := int64(1); k <= total+1; k++ {
		got, want := &guard.Budget{MaxLPPivots: k}, &guard.Budget{MaxLPPivots: k}
		_, err := p.SolveCtx(guard.WithBudget(context.Background(), got))
		_, _, refErr := lp.RefSolve(guard.WithBudget(context.Background(), want), p)
		if (err == nil) != (refErr == nil) || got.Pivots() != want.Pivots() {
			t.Fatalf("budget %d: err %v after %d charges, reference %v after %d", k, err, got.Pivots(), refErr, want.Pivots())
		}
		if (err == nil) != (k >= total) {
			t.Fatalf("budget %d of %d needed: err %v", k, total, err)
		}
		if err != nil && !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("budget %d: %v is not ErrBudgetExceeded", k, err)
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on: a cancellation at a chosen poll, with no timing involved.
type cancelAfter struct {
	context.Context
	polls, n int
}

func (c *cancelAfter) Err() error {
	if c.polls++; c.polls > c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelMidSolve cancels the served cycle4 solve at every one of its
// context polls in turn — on entry, between pivots, inside a pivot's row
// elimination — and wants guard.ErrCanceled from each.
func TestCancelMidSolve(t *testing.T) {
	p := servedCycle4LP(t)
	count := &cancelAfter{Context: context.Background(), n: 1 << 30}
	if _, err := p.SolveCtx(count); err != nil {
		t.Fatal(err)
	}
	// 57 pivots, each polled once before it and on every 16th of 42 rows.
	if count.polls < 200 {
		t.Fatalf("a solve polled its context %d times, want one poll per pivot and three inside each", count.polls)
	}
	for n := 0; n < count.polls; n++ {
		sol, err := p.SolveCtx(&cancelAfter{Context: context.Background(), n: n})
		if !errors.Is(err, guard.ErrCanceled) || sol != nil {
			t.Fatalf("cancelled at poll %d of %d: solution %v, err %v", n, count.polls, sol, err)
		}
	}
}
