// Package lp implements an exact linear programming solver: a dense
// two-phase primal simplex over arbitrary-precision rationals
// (math/big.Rat) with Bland's anti-cycling rule and dual-solution
// extraction.
//
// Exact arithmetic matters here: the polymatroid bound LPs of the paper
// have optima like 3/2·log N, and the Shannon-flow machinery consumes the
// *dual* solution as a proof witness, where an epsilon-rounded multiplier
// would break the downstream bookkeeping. Problem sizes are tiny (2^n
// variables for constant query size n), so exactness costs nothing that
// matters.
package lp

import (
	"context"
	"fmt"
	"math/big"

	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

// Sense selects the optimization direction.
type Sense int

// Optimization senses.
const (
	Maximize Sense = iota
	Minimize
)

// Status describes the outcome of SolveCtx.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

type rowKind int

const (
	rowLE rowKind = iota // Σ a·x ≤ b
	rowGE                // Σ a·x ≥ b
	rowEQ                // Σ a·x = b
)

type row struct {
	kind   rowKind
	coeffs map[int]*big.Rat
	rhs    *big.Rat
}

// Problem is a linear program over non-negative variables x ≥ 0.
type Problem struct {
	sense Sense
	nvars int
	obj   []*big.Rat
	rows  []row
}

// NewProblem creates a problem with nvars non-negative variables and a
// zero objective.
func NewProblem(nvars int, sense Sense) *Problem {
	if nvars <= 0 {
		panic(guard.Invalidf("lp: need at least one variable"))
	}
	obj := make([]*big.Rat, nvars)
	for i := range obj {
		obj[i] = new(big.Rat)
	}
	return &Problem{sense: sense, nvars: nvars, obj: obj}
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.nvars }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObjective sets the objective coefficient of variable i.
func (p *Problem) SetObjective(i int, v *big.Rat) {
	p.obj[i] = new(big.Rat).Set(v)
}

// SetObjectiveInt sets the objective coefficient of variable i to an
// integer value.
func (p *Problem) SetObjectiveInt(i int, v int64) {
	p.obj[i] = new(big.Rat).SetInt64(v)
}

func cloneCoeffs(coeffs map[int]*big.Rat) map[int]*big.Rat {
	c := make(map[int]*big.Rat, len(coeffs))
	for i, v := range coeffs {
		c[i] = new(big.Rat).Set(v)
	}
	return c
}

func (p *Problem) addRow(kind rowKind, coeffs map[int]*big.Rat, rhs *big.Rat) int {
	for i := range coeffs {
		if i < 0 || i >= p.nvars {
			panic(guard.Invalidf("lp: coefficient for variable %d out of range", i))
		}
	}
	p.rows = append(p.rows, row{kind: kind, coeffs: cloneCoeffs(coeffs), rhs: new(big.Rat).Set(rhs)})
	return len(p.rows) - 1
}

// AddLE adds the constraint Σ coeffs·x ≤ rhs and returns its row index.
func (p *Problem) AddLE(coeffs map[int]*big.Rat, rhs *big.Rat) int {
	return p.addRow(rowLE, coeffs, rhs)
}

// AddGE adds the constraint Σ coeffs·x ≥ rhs and returns its row index.
func (p *Problem) AddGE(coeffs map[int]*big.Rat, rhs *big.Rat) int {
	return p.addRow(rowGE, coeffs, rhs)
}

// AddEQ adds the constraint Σ coeffs·x = rhs and returns its row index.
func (p *Problem) AddEQ(coeffs map[int]*big.Rat, rhs *big.Rat) int {
	return p.addRow(rowEQ, coeffs, rhs)
}

// Coeffs is a convenience constructor for sparse coefficient maps from
// (index, numerator) pairs with unit denominators.
func Coeffs(pairs ...int64) map[int]*big.Rat {
	if len(pairs)%2 != 0 {
		panic(guard.Invalidf("lp: Coeffs needs (index, value) pairs"))
	}
	m := make(map[int]*big.Rat, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[int(pairs[i])] = new(big.Rat).SetInt64(pairs[i+1])
	}
	return m
}

// Rat returns a rational from a numerator/denominator pair.
func Rat(num, den int64) *big.Rat { return big.NewRat(num, den) }

// Solution is the result of SolveCtx.
type Solution struct {
	Status    Status
	Objective *big.Rat   // optimal value in the problem's own sense
	X         []*big.Rat // primal solution, length NumVars
	Dual      []*big.Rat // dual values, one per constraint row
}

// SolveCtx runs two-phase simplex. The returned Solution has Status
// Optimal, Infeasible, or Unbounded; X and Dual are populated only when
// Optimal.
//
// Dual sign convention: for a Maximize problem, the dual of a ≤ row is
// ≥ 0 and the dual of a ≥ row is ≤ 0 (and vice versa for Minimize);
// equality rows have free duals. With these conventions,
// Σ_i Dual_i · rhs_i = Objective at optimality (strong duality), which
// the tests verify.
//
// The simplex loop polls ctx at sub-pivot granularity (so cancellation
// and deadlines interrupt even a single large exact-rational pivot
// promptly) and charges every pivot against the guard.Budget attached to
// ctx, if any. Interruptions surface as guard.ErrCanceled or
// guard.ErrBudgetExceeded.
//
// Observability: each solve accumulates lp_solves/lp_pivots onto the
// enclosing obs span, so a compile's lp-solve stage reports how many
// exact LPs it ran and how much pivoting they cost.
func (p *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	t, err := newTableau(ctx, p)
	if err != nil {
		return nil, err
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		defer func() {
			sp.AddInt(obs.CounterSolves, 1)
			sp.AddInt(obs.CounterPivots, t.pivots)
		}()
	}
	feasible, err := t.phase1()
	if err != nil {
		return nil, err
	}
	if !feasible {
		return &Solution{Status: Infeasible}, nil
	}
	st, err := t.phase2()
	if err != nil {
		return nil, err
	}
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	case Optimal:
	default:
		return nil, fmt.Errorf("lp: internal: unexpected phase-2 status")
	}
	return t.extract(), nil
}

// tableau is the dense simplex tableau. Columns: structural variables
// [0, n), slacks [n, n+m) (one per row; equality rows get a slack column
// that is fixed to zero by never allowing it to enter), then the rhs.
// Artificial variables are appended during phase 1 and frozen afterwards.
type tableau struct {
	p        *Problem
	m, n     int // constraint count, structural variable count
	cols     int // current number of variable columns (excl. rhs)
	nart     int // number of artificial columns
	a        [][]*big.Rat
	basis    []int // basis[i] = column basic in row i
	flipped  []bool
	isSlack  []int // column -> row index if slack, else -1
	banned   []bool
	artStart int

	ctx    context.Context
	budget *guard.Budget
	pivots int64
}

func newTableau(ctx context.Context, p *Problem) (*tableau, error) {
	m, n := len(p.rows), p.nvars
	t := &tableau{p: p, m: m, n: n, ctx: ctx, budget: guard.FromContext(ctx)}
	t.cols = n + m
	t.a = make([][]*big.Rat, m+1) // +1 objective row
	t.flipped = make([]bool, m)
	for i := 0; i <= m; i++ {
		if i&15 == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		t.a[i] = make([]*big.Rat, t.cols+1)
		for j := range t.a[i] {
			t.a[i][j] = new(big.Rat)
		}
	}
	t.basis = make([]int, m)
	t.isSlack = make([]int, t.cols)
	for j := range t.isSlack {
		t.isSlack[j] = -1
	}
	t.banned = make([]bool, t.cols)

	for i, r := range p.rows {
		for j, v := range r.coeffs {
			t.a[i][j].Set(v)
		}
		t.a[i][t.cols].Set(r.rhs)
		slack := n + i
		t.isSlack[slack] = i
		switch r.kind {
		case rowLE:
			t.a[i][slack].SetInt64(1)
		case rowGE:
			t.a[i][slack].SetInt64(-1)
		case rowEQ:
			// No usable slack: ban the column (it stays all-zero).
			t.banned[slack] = true
		}
		// Normalize to rhs ≥ 0.
		if t.a[i][t.cols].Sign() < 0 {
			t.flipped[i] = true
			for j := 0; j <= t.cols; j++ {
				t.a[i][j].Neg(t.a[i][j])
			}
		}
	}
	return t, nil
}

// needsArtificial reports whether row i lacks a ready basic column (a
// slack with coefficient +1 after normalization).
func (t *tableau) needsArtificial(i int) bool {
	slack := t.n + i
	return t.banned[slack] || t.a[i][slack].Sign() != 1
}

func (t *tableau) addColumn() int {
	j := t.cols
	t.cols++
	for i := range t.a {
		t.a[i] = append(t.a[i], new(big.Rat))
		// Keep rhs as the last element: swap the new zero with rhs.
		last := len(t.a[i]) - 1
		t.a[i][last], t.a[i][last-1] = t.a[i][last-1], t.a[i][last]
	}
	t.isSlack = append(t.isSlack, -1)
	t.banned = append(t.banned, false)
	return j
}

// phase1 finds a basic feasible solution; it reports feasibility.
func (t *tableau) phase1() (bool, error) {
	t.artStart = t.cols
	var artRows []int
	for i := 0; i < t.m; i++ {
		if !t.needsArtificial(i) {
			t.basis[i] = t.n + i
			continue
		}
		j := t.addColumn()
		t.a[i][j].SetInt64(1)
		t.basis[i] = j
		artRows = append(artRows, i)
		t.nart++
	}
	if t.nart == 0 {
		return true, nil
	}
	// Phase-1 objective: maximize -Σ artificials. Objective row holds
	// reduced costs; start with +1 in artificial columns then zero the
	// basic ones by subtracting their rows.
	obj := t.a[t.m]
	for j := 0; j <= t.cols; j++ {
		obj[j].SetInt64(0)
	}
	for j := t.artStart; j < t.cols; j++ {
		obj[j].SetInt64(1)
	}
	for _, i := range artRows {
		for j := 0; j <= t.cols; j++ {
			obj[j].Sub(obj[j], t.a[i][j])
		}
	}
	st, err := t.iterate()
	if err != nil {
		return false, err
	}
	if st != Optimal {
		// Phase 1 cannot be unbounded (objective bounded by 0).
		return false, nil
	}
	if t.a[t.m][t.cols].Sign() != 0 {
		return false, nil // residual artificial value -> infeasible
	}
	// Drive basic artificials out (degenerate rows).
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if !t.banned[j] && t.a[i][j].Sign() != 0 {
				if err := t.pivot(i, j); err != nil {
					return false, err
				}
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is all-zero over real columns: redundant constraint.
			// Leave the artificial basic at value zero but ban pivots in.
		}
	}
	// Freeze artificial columns.
	for j := t.artStart; j < t.cols; j++ {
		t.banned[j] = true
	}
	return true, nil
}

// phase2 optimizes the real objective from the current feasible basis.
func (t *tableau) phase2() (Status, error) {
	obj := t.a[t.m]
	for j := 0; j <= t.cols; j++ {
		obj[j].SetInt64(0)
	}
	neg := big.NewRat(-1, 1)
	for j := 0; j < t.n; j++ {
		c := new(big.Rat).Set(t.p.obj[j])
		if t.p.sense == Minimize {
			c.Mul(c, neg)
		}
		obj[j].Neg(c) // reduced cost row starts at -c for a max problem
	}
	// Express in terms of the current basis: zero out basic columns.
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if obj[b].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Set(obj[b])
		for j := 0; j <= t.cols; j++ {
			tmp := new(big.Rat).Mul(factor, t.a[i][j])
			obj[j].Sub(obj[j], tmp)
		}
	}
	return t.iterate()
}

// iterate runs simplex pivots with Bland's rule until optimal,
// unbounded, or interrupted by the context or pivot budget.
func (t *tableau) iterate() (Status, error) {
	obj := t.a[t.m]
	for {
		if err := t.budget.Pivot(t.ctx); err != nil {
			return Optimal, err
		}
		// Entering column: smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < t.cols; j++ {
			if !t.banned[j] && obj[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test with Bland tie-breaking on basis variable index.
		leave := -1
		var best *big.Rat
		for i := 0; i < t.m; i++ {
			if t.a[i][enter].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(t.a[i][t.cols], t.a[i][enter])
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave, best = i, ratio
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if err := t.pivot(leave, enter); err != nil {
			return Optimal, err
		}
		t.pivots++
	}
}

// pivot makes column enter basic in row leave. A single exact-rational
// pivot touches m·cols entries, so it polls the context every few rows
// to keep the cancellation latency well under the row-elimination cost.
func (t *tableau) pivot(leave, enter int) error {
	prow := t.a[leave]
	inv := new(big.Rat).Inv(prow[enter])
	for j := 0; j <= t.cols; j++ {
		prow[j].Mul(prow[j], inv)
	}
	for i := 0; i <= t.m; i++ {
		if i&15 == 0 {
			if err := guard.Poll(t.ctx); err != nil {
				return err
			}
		}
		if i == leave || t.a[i][enter].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Set(t.a[i][enter])
		for j := 0; j <= t.cols; j++ {
			tmp := new(big.Rat).Mul(factor, prow[j])
			t.a[i][j].Sub(t.a[i][j], tmp)
		}
	}
	t.basis[leave] = enter
	return nil
}

// extract builds the Solution from an optimal tableau.
func (t *tableau) extract() *Solution {
	sol := &Solution{Status: Optimal}
	sol.X = make([]*big.Rat, t.n)
	for j := range sol.X {
		sol.X[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < t.n {
			sol.X[b].Set(t.a[i][t.cols])
		}
	}
	obj := new(big.Rat).Set(t.a[t.m][t.cols])
	if t.p.sense == Minimize {
		obj.Neg(obj)
	}
	sol.Objective = obj

	// Duals. The reduced cost of a column with zero objective coefficient
	// equals y'·A_col, where y' is the dual of the *normalized* tableau
	// rows and A_col the column's original tableau coefficients. Each
	// row's slack (or, for equality rows, its phase-1 artificial) is such
	// a column with a single ±1 entry, so y'_i is read off directly; the
	// dual of the original row then flips sign iff the row was
	// rhs-normalized, and again for Minimize (which we solved negated).
	sol.Dual = make([]*big.Rat, t.m)
	for i := 0; i < t.m; i++ {
		y := new(big.Rat)
		switch t.p.rows[i].kind {
		case rowEQ:
			for j := t.artStart; j < t.cols; j++ {
				if t.artForRow(j) == i {
					y.Set(t.a[t.m][j]) // artificial coefficient is +1
					break
				}
			}
		default:
			y.Set(t.a[t.m][t.n+i])
			coefPositive := (t.p.rows[i].kind == rowLE) != t.flipped[i]
			if !coefPositive {
				y.Neg(y)
			}
		}
		if t.flipped[i] {
			y.Neg(y)
		}
		if t.p.sense == Minimize {
			y.Neg(y)
		}
		sol.Dual[i] = y
	}
	return sol
}

// artForRow returns the constraint row an artificial column was created
// for, or -1. Artificial columns were added in row order during phase 1,
// with coefficient 1 in exactly their row at creation time; we track this
// by scanning creation order.
func (t *tableau) artForRow(col int) int {
	// Reconstruct: artificial columns were appended in increasing row
	// order for rows that needed one.
	k := col - t.artStart
	cnt := 0
	for i := 0; i < t.m; i++ {
		if t.needsArtificialOriginal(i) {
			if cnt == k {
				return i
			}
			cnt++
		}
	}
	return -1
}

// needsArtificialOriginal mirrors the phase-1 decision using only
// immutable problem data (kind and flip status plus original slack sign).
func (t *tableau) needsArtificialOriginal(i int) bool {
	switch t.p.rows[i].kind {
	case rowEQ:
		return true
	case rowLE:
		return t.flipped[i] // flipped LE has slack -1
	case rowGE:
		return !t.flipped[i] // unflipped GE has slack -1
	}
	return false
}
