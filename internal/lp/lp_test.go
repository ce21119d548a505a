package lp

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
)

func ratEq(t *testing.T, got *big.Rat, num, den int64, what string) {
	t.Helper()
	if got.Cmp(big.NewRat(num, den)) != 0 {
		t.Fatalf("%s = %v, want %d/%d", what, got, num, den)
	}
}

// checkStrongDuality verifies Σ dual_i · rhs_i equals the objective.
func checkStrongDuality(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	sum := new(big.Rat)
	for i, r := range p.rows {
		sum.Add(sum, new(big.Rat).Mul(sol.Dual[i], r.rhs.rat()))
	}
	if sum.Cmp(sol.Objective) != 0 {
		t.Fatalf("strong duality violated: y·b = %v, obj = %v", sum, sol.Objective)
	}
}

// checkDualFeasible verifies Aᵀy ≥ c for Maximize (≤ c for Minimize) on
// every variable, i.e. the dual solution certifies the bound.
func checkDualFeasible(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	for j := 0; j < p.nvars; j++ {
		lhs := new(big.Rat)
		for i, r := range p.rows {
			for _, e := range p.terms[r.lo:r.hi] {
				if e.col == j {
					lhs.Add(lhs, new(big.Rat).Mul(sol.Dual[i], e.v.rat()))
				}
			}
		}
		switch p.sense {
		case Maximize:
			if lhs.Cmp(p.obj[j]) < 0 {
				t.Fatalf("dual infeasible at var %d: Aᵀy = %v < c = %v", j, lhs, p.obj[j])
			}
		case Minimize:
			if lhs.Cmp(p.obj[j]) > 0 {
				t.Fatalf("dual infeasible at var %d: Aᵀy = %v > c = %v", j, lhs, p.obj[j])
			}
		}
	}
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6 -> x=4, y=0, obj 12.
	p := NewProblem(2, Maximize)
	p.SetObjectiveInt(0, 3)
	p.SetObjectiveInt(1, 2)
	p.AddLE(Coeffs(0, 1, 1, 1), Rat(4, 1))
	p.AddLE(Coeffs(0, 1, 1, 3), Rat(6, 1))
	sol, err := p.SolveCtx(context.Background())
	if err != nil || sol.Status != Optimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	ratEq(t, sol.Objective, 12, 1, "objective")
	ratEq(t, sol.X[0], 4, 1, "x")
	ratEq(t, sol.X[1], 0, 1, "y")
	checkStrongDuality(t, p, sol)
	checkDualFeasible(t, p, sol)
}

func TestFractionalOptimum(t *testing.T) {
	// max x + y s.t. 2x + y ≤ 3, x + 2y ≤ 3 -> x=y=1, obj 2; with
	// objective x + 2y the optimum moves to a vertex with fractions.
	p := NewProblem(2, Maximize)
	p.SetObjectiveInt(0, 1)
	p.SetObjectiveInt(1, 1)
	p.AddLE(Coeffs(0, 2, 1, 1), Rat(3, 1))
	p.AddLE(Coeffs(0, 1, 1, 2), Rat(3, 1))
	sol, _ := p.SolveCtx(context.Background())
	ratEq(t, sol.Objective, 2, 1, "objective")
	checkStrongDuality(t, p, sol)

	// The AGM-style half-weights LP: max h s.t. h ≤ x+y, x ≤ 1, y ≤ 1,
	// x + y ≤ 3/2 -> h = 3/2.
	q := NewProblem(3, Maximize)
	q.SetObjectiveInt(0, 1)
	q.AddLE(Coeffs(0, 1, 1, -1, 2, -1), Rat(0, 1))
	q.AddLE(Coeffs(1, 1), Rat(1, 1))
	q.AddLE(Coeffs(2, 1), Rat(1, 1))
	q.AddLE(Coeffs(1, 1, 2, 1), Rat(3, 2))
	sol2, _ := q.SolveCtx(context.Background())
	ratEq(t, sol2.Objective, 3, 2, "objective")
	checkStrongDuality(t, q, sol2)
	checkDualFeasible(t, q, sol2)
}

func TestMinimizeWithGE(t *testing.T) {
	// Fractional edge cover of the triangle: min x+y+z s.t. each vertex
	// covered: x+z ≥ 1 (A), x+y ≥ 1 (B), y+z ≥ 1 (C) -> all 1/2, obj 3/2.
	p := NewProblem(3, Minimize)
	for i := 0; i < 3; i++ {
		p.SetObjectiveInt(i, 1)
	}
	p.AddGE(Coeffs(0, 1, 2, 1), Rat(1, 1))
	p.AddGE(Coeffs(0, 1, 1, 1), Rat(1, 1))
	p.AddGE(Coeffs(1, 1, 2, 1), Rat(1, 1))
	sol, err := p.SolveCtx(context.Background())
	if err != nil || sol.Status != Optimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	ratEq(t, sol.Objective, 3, 2, "edge cover")
	for i := 0; i < 3; i++ {
		ratEq(t, sol.X[i], 1, 2, "x_i")
	}
	checkStrongDuality(t, p, sol)
	checkDualFeasible(t, p, sol)
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + y = 2, x ≤ 1 -> obj 2.
	p := NewProblem(2, Maximize)
	p.SetObjectiveInt(0, 1)
	p.SetObjectiveInt(1, 1)
	p.AddEQ(Coeffs(0, 1, 1, 1), Rat(2, 1))
	p.AddLE(Coeffs(0, 1), Rat(1, 1))
	sol, _ := p.SolveCtx(context.Background())
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	ratEq(t, sol.Objective, 2, 1, "objective")
	checkStrongDuality(t, p, sol)
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1, Maximize)
	p.SetObjectiveInt(0, 1)
	p.AddLE(Coeffs(0, 1), Rat(1, 1))
	p.AddGE(Coeffs(0, 1), Rat(2, 1))
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2, Maximize)
	p.SetObjectiveInt(0, 1)
	p.AddLE(Coeffs(1, 1), Rat(5, 1)) // x unconstrained above
	sol, err := p.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// max -x s.t. -x ≤ -3 (i.e. x ≥ 3) -> x = 3, obj -3.
	p := NewProblem(1, Maximize)
	p.SetObjectiveInt(0, -1)
	p.AddLE(Coeffs(0, -1), Rat(-3, 1))
	sol, _ := p.SolveCtx(context.Background())
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	ratEq(t, sol.Objective, -3, 1, "objective")
	ratEq(t, sol.X[0], 3, 1, "x")
	checkStrongDuality(t, p, sol)
}

func TestDegenerateCycleGuard(t *testing.T) {
	// A classically cycling instance (Beale); Bland's rule must terminate.
	p := NewProblem(4, Maximize)
	p.SetObjective(0, Rat(3, 4))
	p.SetObjectiveInt(1, -150)
	p.SetObjective(2, Rat(1, 50))
	p.SetObjectiveInt(3, -6)
	p.AddLE([]Term{{0, Rat(1, 4)}, {1, Rat(-60, 1)}, {2, Rat(-1, 25)}, {3, Rat(9, 1)}}, Rat(0, 1))
	p.AddLE([]Term{{0, Rat(1, 2)}, {1, Rat(-90, 1)}, {2, Rat(-1, 50)}, {3, Rat(3, 1)}}, Rat(0, 1))
	p.AddLE(Coeffs(2, 1), Rat(1, 1))
	sol, err := p.SolveCtx(context.Background())
	if err != nil || sol.Status != Optimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	ratEq(t, sol.Objective, 1, 20, "objective")
	checkStrongDuality(t, p, sol)
	checkDualFeasible(t, p, sol)
}

// randomProblem draws a small LP. Plain, it is a maximization with
// non-negative ≤ rows and a box, hence feasible and bounded. Mixed, it has
// either sense, ≤, ≥ and = rows, fractional and negative coefficients,
// negative right-hand sides, repeated variables within a row and often no
// box, so infeasible and unbounded problems come up too.
func randomProblem(rng *rand.Rand, mixed bool) *Problem {
	n := 2 + rng.Intn(4)
	m := 2 + rng.Intn(5)
	sense := Maximize
	if mixed && rng.Intn(3) == 0 {
		sense = Minimize
	}
	p := NewProblem(n, sense)
	for j := 0; j < n; j++ {
		p.SetObjectiveInt(j, int64(rng.Intn(9)-2))
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			terms = append(terms, Term{j, Rat(int64(rng.Intn(5)), 1)}) // non-negative -> bounded
		}
		rhs := Rat(int64(1+rng.Intn(20)), 1)
		if !mixed {
			p.AddLE(terms, rhs)
			continue
		}
		for j := range terms {
			terms[j].Coef = Rat(int64(rng.Intn(9)-4), int64(1+rng.Intn(3)))
		}
		terms = append(terms, Term{rng.Intn(n), Rat(1, 2)})
		rhs = Rat(int64(rng.Intn(26)-5), int64(1+rng.Intn(4)))
		switch rng.Intn(6) {
		case 0:
			p.AddEQ(terms, rhs)
		case 1, 2:
			p.AddGE(terms, rhs)
		default:
			p.AddLE(terms, rhs)
		}
	}
	// Box constraints guarantee boundedness even with zero rows.
	if !mixed || rng.Intn(2) == 0 {
		for j := 0; j < n; j++ {
			p.AddLE(Coeffs(int64(j), 1), Rat(50, 1))
		}
	}
	return p
}

// TestRandomDualityProperty solves random feasible bounded LPs and checks
// strong duality and dual feasibility hold exactly.
func TestRandomDualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 60; iter++ {
		p := randomProblem(rng, false)
		sol, err := p.SolveCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("iter %d: status %v", iter, sol.Status)
		}
		checkStrongDuality(t, p, sol)
		checkDualFeasible(t, p, sol)
		// Primal feasibility of the reported solution.
		for i, r := range p.rows {
			lhs := new(big.Rat)
			for _, e := range p.terms[r.lo:r.hi] {
				lhs.Add(lhs, new(big.Rat).Mul(e.v.rat(), sol.X[e.col]))
			}
			if lhs.Cmp(r.rhs.rat()) > 0 {
				t.Fatalf("iter %d: primal infeasible row %d", iter, i)
			}
		}
	}
}

func TestMinimizeEqualityDuals(t *testing.T) {
	// min 2x + 3y s.t. x + y = 4, x ≥ 1 -> x=4? y=0: check: obj 8? but
	// x ≥ 1 is satisfied; optimum x=4,y=0 obj 8.
	p := NewProblem(2, Minimize)
	p.SetObjectiveInt(0, 2)
	p.SetObjectiveInt(1, 3)
	p.AddEQ(Coeffs(0, 1, 1, 1), Rat(4, 1))
	p.AddGE(Coeffs(0, 1), Rat(1, 1))
	sol, _ := p.SolveCtx(context.Background())
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	ratEq(t, sol.Objective, 8, 1, "objective")
	ratEq(t, sol.X[0], 4, 1, "x")
	checkStrongDuality(t, p, sol)
	checkDualFeasible(t, p, sol)
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("Status.String wrong")
	}
}
