package lp

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

// The solver this package shipped before its tableau moved to word-sized
// entries: a big.Rat per entry, artificial columns appended during phase
// 1. It is kept verbatim (renamed, and reading its rows from refProblem)
// as the reference the differential tests hold Problem.SolveCtx to:
// status, objective, primal, dual and pivot count must all be equal,
// because the pivot sequence decides which dual vertex, hence which
// proof sequence and plan, a compile gets.

type refRow struct {
	kind   rowKind
	coeffs map[int]*big.Rat
	rhs    *big.Rat
}

type refProblem struct {
	sense Sense
	nvars int
	obj   []*big.Rat
	rows  []refRow
}

// refOf restates p in the reference solver's row format.
func refOf(p *Problem) *refProblem {
	rp := &refProblem{sense: p.sense, nvars: p.nvars, obj: p.obj}
	for _, r := range p.rows {
		coeffs := map[int]*big.Rat{}
		for _, e := range p.terms[r.lo:r.hi] {
			if coeffs[e.col] == nil {
				coeffs[e.col] = new(big.Rat)
			}
			coeffs[e.col].Add(coeffs[e.col], e.v.rat())
		}
		rp.rows = append(rp.rows, refRow{kind: r.kind, coeffs: coeffs, rhs: new(big.Rat).Set(r.rhs.rat())})
	}
	return rp
}

// refSolve is the old SolveCtx; it also returns the pivot count.
func refSolve(ctx context.Context, p *Problem) (*Solution, int64, error) {
	t, err := newRefTableau(ctx, refOf(p))
	if err != nil {
		return nil, 0, err
	}
	feasible, err := t.phase1()
	if err != nil {
		return nil, t.pivots, err
	}
	if !feasible {
		return &Solution{Status: Infeasible}, t.pivots, nil
	}
	st, err := t.phase2()
	if err != nil {
		return nil, t.pivots, err
	}
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded}, t.pivots, nil
	case Optimal:
	default:
		return nil, t.pivots, fmt.Errorf("lp: internal: unexpected phase-2 status")
	}
	return t.extract(), t.pivots, nil
}

// refTableau is the dense simplex tableau. Columns: structural variables
// [0, n), slacks [n, n+m) (one per row; equality rows get a slack column
// that is fixed to zero by never allowing it to enter), then the rhs.
// Artificial variables are appended during phase 1 and frozen afterwards.
type refTableau struct {
	p        *refProblem
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

func newRefTableau(ctx context.Context, p *refProblem) (*refTableau, error) {
	m, n := len(p.rows), p.nvars
	t := &refTableau{p: p, m: m, n: n, ctx: ctx, budget: guard.FromContext(ctx)}
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
func (t *refTableau) needsArtificial(i int) bool {
	slack := t.n + i
	return t.banned[slack] || t.a[i][slack].Sign() != 1
}

func (t *refTableau) addColumn() int {
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
func (t *refTableau) phase1() (bool, error) {
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
func (t *refTableau) phase2() (Status, error) {
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
func (t *refTableau) iterate() (Status, error) {
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
func (t *refTableau) pivot(leave, enter int) error {
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
func (t *refTableau) extract() *Solution {
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
func (t *refTableau) artForRow(col int) int {
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
func (t *refTableau) needsArtificialOriginal(i int) bool {
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

// solvePivots is SolveCtx plus the lp_pivots it reports to the enclosing
// obs span, the counter a compile's lp-solve stage publishes.
func solvePivots(ctx context.Context, p *Problem) (*Solution, int64, error) {
	ctx, sp := obs.StartSpan(obs.WithTracer(ctx, obs.NewTracer(1)), "solve")
	sol, err := p.SolveCtx(ctx)
	sp.End()
	for _, a := range sp.Attrs() {
		if a.Key == obs.CounterPivots {
			return sol, a.Int, err
		}
	}
	return sol, 0, err
}

// checkAgainstReference solves p with both solvers and fails unless
// status, objective, primal, dual and pivot count are all equal.
func checkAgainstReference(t testing.TB, label string, p *Problem) *Solution {
	t.Helper()
	want, wantPivots, wantErr := refSolve(context.Background(), p)
	got, gotPivots, err := solvePivots(context.Background(), p)
	if err != nil || wantErr != nil {
		t.Fatalf("%s: solve error %v, reference %v", label, err, wantErr)
	}
	if got.Status != want.Status || gotPivots != wantPivots {
		t.Fatalf("%s: %v after %d pivots, reference %v after %d", label, got.Status, gotPivots, want.Status, wantPivots)
	}
	if got.Status != Optimal {
		return got
	}
	same := func(what string, g, w []*big.Rat) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d entries, reference %d", label, what, len(g), len(w))
		}
		for i := range g {
			if g[i].Cmp(w[i]) != 0 || g[i].String() != w[i].String() {
				t.Fatalf("%s: %s[%d] = %v, reference %v", label, what, i, g[i], w[i])
			}
		}
	}
	same("objective", []*big.Rat{got.Objective}, []*big.Rat{want.Objective})
	same("x", got.X, want.X)
	same("dual", got.Dual, want.Dual)
	return got
}

// fuzzDens are the denominators FuzzLP draws from: small ones, and primes
// and the 10^12 of bound.Log2Rat large enough that a few pivots overflow
// int64 and promote entries.
var fuzzDens = []int64{1, 1, 1, 2, 3, 7, 1_000_003, 998_244_353, 2_147_483_647, 1_000_000_000_000}

// fuzzProblem decodes an LP of up to 4 variables and 6 rows from fuzz
// bytes, or nil when there are too few. Every byte string that is long
// enough is a valid problem.
func fuzzProblem(data []byte) *Problem {
	if len(data) < 2 {
		return nil
	}
	n, sense := 1+int(data[0]%4), Sense(data[0]>>7)
	next := func() *big.Rat {
		if len(data) < 2 {
			data = nil
			return nil
		}
		r := big.NewRat(int64(int8(data[0])), fuzzDens[int(data[1])%len(fuzzDens)])
		data = data[2:]
		return r
	}
	kinds := data[1]
	data = data[2:]
	p := NewProblem(n, sense)
	for j := 0; j < n; j++ {
		c := next()
		if c == nil {
			return nil
		}
		p.SetObjective(j, c)
	}
	for i := 0; i < 6; i++ {
		rhs := next()
		var terms []Term
		for j := 0; j < n && rhs != nil; j++ {
			if c := next(); c != nil {
				terms = append(terms, Term{j, c})
			}
		}
		if len(terms) < n {
			break
		}
		p.addRow(rowKind((kinds>>uint(i))&1+(kinds>>uint(i+2))&1), terms, rhs) // ≤, ≥ or =
	}
	if len(p.rows) == 0 {
		return nil
	}
	return p
}

// FuzzLP holds SolveCtx to the reference solver on small fuzzed problems.
func FuzzLP(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 2, 0, 4, 0, 1, 0, 1, 0, 6, 0, 1, 0, 3, 0})
	f.Add([]byte{0x83, 0x1b, 1, 7, 2, 8, 250, 9, 5, 7, 1, 2, 3, 8, 1, 0, 9, 9, 7, 7, 200, 3, 1, 1, 4, 8, 6, 6, 1, 0, 100, 7, 1, 9, 2, 8, 3, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p := fuzzProblem(data); p != nil {
			checkAgainstReference(t, "fuzz", p)
		}
	})
}
