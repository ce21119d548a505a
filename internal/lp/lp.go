// Package lp implements an exact linear programming solver: a dense
// two-phase primal simplex with Bland's anti-cycling rule and
// dual-solution extraction. Every tableau entry is an exact rational, an
// int64 numerator and denominator under overflow-checked arithmetic; the
// one entry an operation would overflow is carried in math/big.Rat from
// that operation on (see num), so no result is ever rounded.
//
// Exact arithmetic matters here: the polymatroid bound LPs of the paper
// have optima like 3/2·log N, and the Shannon-flow machinery consumes the
// *dual* solution as a proof witness, where an epsilon-rounded multiplier
// would break the downstream bookkeeping. It is not free: the LPs have
// 2^n variables for query size n, and with a big.Rat allocated per entry
// per pivot the solve was half of a served cold compile. The word-sized
// entries take that constant factor; the 2^n stays (ROADMAP item 4).
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

// Term is one entry Coef·x[Var] of a sparse constraint row.
type Term struct {
	Var  int
	Coef *big.Rat
}

// entry is a stored Term.
type entry struct {
	col int
	v   num
}

// row is one constraint: its entries are Problem.terms[lo:hi].
type row struct {
	kind   rowKind
	lo, hi int
	rhs    num
}

// Problem is a linear program over non-negative variables x ≥ 0.
type Problem struct {
	sense Sense
	nvars int
	obj   []*big.Rat
	rows  []row
	terms []entry // every row's entries, in row order
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

// addRow stores the row's values, not the caller's slice or rationals;
// terms naming one variable twice add up.
func (p *Problem) addRow(kind rowKind, terms []Term, rhs *big.Rat) int {
	lo := len(p.terms)
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.nvars {
			p.terms = p.terms[:lo]
			panic(guard.Invalidf("lp: coefficient for variable %d out of range", t.Var))
		}
		p.terms = append(p.terms, entry{col: t.Var, v: fromRat(t.Coef)})
	}
	p.rows = append(p.rows, row{kind: kind, lo: lo, hi: len(p.terms), rhs: fromRat(rhs)})
	return len(p.rows) - 1
}

// AddLE adds the constraint Σ terms ≤ rhs and returns its row index.
func (p *Problem) AddLE(terms []Term, rhs *big.Rat) int {
	return p.addRow(rowLE, terms, rhs)
}

// AddGE adds the constraint Σ terms ≥ rhs and returns its row index.
func (p *Problem) AddGE(terms []Term, rhs *big.Rat) int {
	return p.addRow(rowGE, terms, rhs)
}

// AddEQ adds the constraint Σ terms = rhs and returns its row index.
func (p *Problem) AddEQ(terms []Term, rhs *big.Rat) int {
	return p.addRow(rowEQ, terms, rhs)
}

// Coeffs is a convenience constructor for sparse rows from (index,
// numerator) pairs with unit denominators.
func Coeffs(pairs ...int64) []Term {
	if len(pairs)%2 != 0 {
		panic(guard.Invalidf("lp: Coeffs needs (index, value) pairs"))
	}
	terms := make([]Term, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		terms = append(terms, Term{Var: int(pairs[i]), Coef: new(big.Rat).SetInt64(pairs[i+1])})
	}
	return terms
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

// tableau is the dense simplex tableau, row-major in one slice. Columns:
// structural variables [0, n), slacks [n, n+m) (one per row; an equality
// row's slack stays all-zero and banned), artificials [n+m, cols) in row
// order for the rows that need one, then the rhs. Row m is the objective.
// Bland's rule picks by column and basis index, so this order is part of
// the result: it fixes the pivot sequence and with it the dual vertex the
// witness, the proof sequence and the plan are built from.
type tableau struct {
	p        *Problem
	m, n     int   // constraint count, structural variable count
	cols     int   // number of variable columns (excl. rhs)
	a        []num // (m+1) rows of cols+1 entries
	basis    []int // basis[i] = column basic in row i
	flipped  []bool
	banned   []bool
	artStart int
	artCol   []int // artCol[i] = artificial column of row i, or -1
	nz       []int // scratch: the pivot row's non-zero columns

	ctx    context.Context
	budget *guard.Budget
	pivots int64
}

func (t *tableau) row(i int) []num { return t.a[i*(t.cols+1) : (i+1)*(t.cols+1)] }

func newTableau(ctx context.Context, p *Problem) (*tableau, error) {
	if err := guard.Poll(ctx); err != nil {
		return nil, err
	}
	m, n := len(p.rows), p.nvars
	t := &tableau{p: p, m: m, n: n, cols: n + m, artStart: n + m, ctx: ctx, budget: guard.FromContext(ctx)}
	t.basis = make([]int, m)
	t.flipped = make([]bool, m)
	t.artCol = make([]int, m)
	// Rows are normalized to rhs ≥ 0. A row whose slack is +1 after that
	// starts with the slack basic; an equality, a flipped ≤ or an
	// unflipped ≥ row starts with an artificial.
	for i, r := range p.rows {
		t.flipped[i] = r.rhs.sign() < 0
		t.basis[i], t.artCol[i] = n+i, -1
		if r.kind == rowEQ || (r.kind == rowGE) != t.flipped[i] {
			t.basis[i], t.artCol[i] = t.cols, t.cols
			t.cols++
		}
	}
	t.a = make([]num, (m+1)*(t.cols+1))
	t.banned = make([]bool, t.cols)
	t.nz = make([]int, 0, t.cols+1)
	for i, r := range p.rows {
		row := t.row(i)
		for _, e := range p.terms[r.lo:r.hi] {
			row[e.col] = row[e.col].add(e.v)
		}
		row[t.cols] = r.rhs
		switch r.kind {
		case rowLE:
			row[n+i] = one
		case rowGE:
			row[n+i] = minusOne
		case rowEQ:
			t.banned[n+i] = true
		}
		if t.flipped[i] {
			for j := range row {
				row[j] = row[j].neg()
			}
		}
		if j := t.artCol[i]; j >= 0 {
			row[j] = one
		}
	}
	return t, nil
}

// phase1 finds a basic feasible solution; it reports feasibility.
func (t *tableau) phase1() (bool, error) {
	if t.cols == t.artStart {
		return true, nil
	}
	// Phase-1 objective: maximize -Σ artificials. Objective row holds
	// reduced costs: +1 in artificial columns, then the basic ones zeroed
	// by subtracting their rows.
	obj := t.row(t.m)
	for j := t.artStart; j < t.cols; j++ {
		obj[j] = one
	}
	for i, j := range t.artCol {
		if j >= 0 {
			subMul(obj, t.row(i), one)
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
	if obj[t.cols].sign() != 0 {
		return false, nil // residual artificial value -> infeasible
	}
	// Drive basic artificials out (degenerate rows). A row that is
	// all-zero over the real columns is a redundant constraint: its
	// artificial stays basic at value zero.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		row := t.row(i)
		for j := 0; j < t.artStart; j++ {
			if !t.banned[j] && row[j].sign() != 0 {
				if err := t.pivot(i, j); err != nil {
					return false, err
				}
				break
			}
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
	obj := t.row(t.m)
	clear(obj)
	for j := 0; j < t.n; j++ {
		// Reduced cost row starts at -c for a max problem.
		obj[j] = fromRat(t.p.obj[j])
		if t.p.sense == Maximize {
			obj[j] = obj[j].neg()
		}
	}
	// Express in terms of the current basis: zero out basic columns.
	for i := 0; i < t.m; i++ {
		if f := obj[t.basis[i]]; f.sign() != 0 {
			subMul(obj, t.row(i), f)
		}
	}
	return t.iterate()
}

// subMul subtracts f·src from dst, visiting src's non-zero columns only.
func subMul(dst, src []num, f num) {
	for j := range src {
		if src[j].sign() != 0 {
			dst[j] = dst[j].sub(f.mul(src[j]))
		}
	}
}

// iterate runs simplex pivots with Bland's rule until optimal,
// unbounded, or interrupted by the context or pivot budget.
func (t *tableau) iterate() (Status, error) {
	obj := t.row(t.m)
	for {
		if err := t.budget.Pivot(t.ctx); err != nil {
			return Optimal, err
		}
		// Entering column: smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < t.cols; j++ {
			if !t.banned[j] && obj[j].sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test with Bland tie-breaking on basis variable index.
		leave := -1
		var best num
		for i := 0; i < t.m; i++ {
			row := t.row(i)
			if row[enter].sign() <= 0 {
				continue
			}
			ratio := row[t.cols].quo(row[enter])
			if c := ratio.cmp(best); leave < 0 || c < 0 || (c == 0 && t.basis[i] < t.basis[leave]) {
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

// pivot makes column enter basic in row leave. Only the columns where the
// pivot row is non-zero change, so only those are visited. A pivot still
// touches up to m·cols entries, so it polls the context every few rows to
// keep the cancellation latency well under the row-elimination cost.
func (t *tableau) pivot(leave, enter int) error {
	prow := t.row(leave)
	inv := one.quo(prow[enter])
	nz := t.nz[:0]
	for j := range prow {
		if prow[j].sign() != 0 {
			prow[j] = prow[j].mul(inv)
			nz = append(nz, j)
		}
	}
	for i := 0; i <= t.m; i++ {
		if i&15 == 0 {
			if err := guard.Poll(t.ctx); err != nil {
				return err
			}
		}
		row := t.row(i)
		f := row[enter]
		if i == leave || f.sign() == 0 {
			continue
		}
		for _, j := range nz {
			row[j] = row[j].sub(f.mul(prow[j]))
		}
	}
	t.basis[leave] = enter
	return nil
}

// extract builds the Solution from an optimal tableau.
func (t *tableau) extract() *Solution {
	// A promoted entry's big.Rat is the tableau's own: the caller gets a copy.
	out := func(a num) *big.Rat {
		if a.big != nil {
			return new(big.Rat).Set(a.big)
		}
		return a.rat()
	}
	sol := &Solution{Status: Optimal}
	sol.X = make([]*big.Rat, t.n)
	for j := range sol.X {
		sol.X[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < t.n {
			sol.X[b] = out(t.row(i)[t.cols])
		}
	}
	obj := t.row(t.m)
	sol.Objective = out(obj[t.cols])
	if t.p.sense == Minimize {
		sol.Objective.Neg(sol.Objective)
	}

	// Duals. The reduced cost of a column with zero objective coefficient
	// equals y·A_col, where y is the dual of the original rows and A_col
	// the column's original coefficients. Each row's slack (or, for an
	// equality row, its phase-1 artificial) is such a column with a
	// single ±1 entry, so y_i is read off directly: +1 for a ≤ row's
	// slack, -1 for a ≥ row's, and +1 in the rhs-normalized row for an
	// artificial. Minimize was solved negated.
	sol.Dual = make([]*big.Rat, t.m)
	for i, r := range t.p.rows {
		var y *big.Rat
		switch r.kind {
		case rowLE:
			y = out(obj[t.n+i])
		case rowGE:
			y = out(obj[t.n+i].neg())
		case rowEQ:
			y = out(obj[t.artCol[i]])
			if t.flipped[i] {
				y.Neg(y)
			}
		}
		if t.p.sense == Minimize {
			y.Neg(y)
		}
		sol.Dual[i] = y
	}
	return sol
}
