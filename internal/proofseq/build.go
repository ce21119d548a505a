package proofseq

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"circuitql/internal/bound"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/query"
)

// BuildCtx constructs a proof sequence for the Shannon-flow inequality
// ⟨δ, h⟩ ≥ h(target) certified by a polymatroid-bound result, where δ is
// the result's dual vector over the degree constraints (InitialDelta).
//
// Theorem 2 guarantees a proof sequence exists; the constructive proof in
// [25, Thm B.12] is replaced here by a bounded search guided by the LP
// dual witness: the witness lists exactly which elemental submodularity
// and monotonicity inequalities the certificate uses and with what
// multiplicity, so the search only considers those submodularity steps
// (composition and decomposition steps are functional identities and are
// generated on demand). The returned sequence always passes Verify; if
// the search exhausts its budget an error is returned.
//
// The bounded search polls ctx at every expanded state, so cancellation
// and deadlines interrupt even adversarial witnesses whose search space
// blows up. Each build runs under an obs proofseq span carrying the step
// count and the number of search states expanded.
func BuildCtx(ctx context.Context, q *query.Query, res *bound.Result) (_ Sequence, _ Vec, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageProofSeq)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	delta := InitialDelta(res)
	lambda := Lambda(res.Target)

	// Staged search: first the cheap configurations that find
	// decomposition-free sequences (each decomposition step multiplies
	// the compiled circuit by O(log N) branches, so fewer is much
	// better), then progressively richer move sets.
	configs := []struct {
		lifts, credits, decomp bool
		limit                  int
	}{
		{lifts: true, credits: false, decomp: false, limit: 20000},
		{lifts: true, credits: true, decomp: true, limit: 60000},
		{lifts: false, credits: true, decomp: true, limit: 300000},
	}
	var lastStates int
	for _, cfg := range configs {
		b := &builder{
			q:          q,
			ctx:        ctx,
			target:     res.Target,
			visited:    make(map[string]bool),
			limit:      cfg.limit,
			useLifts:   cfg.lifts,
			useCredits: cfg.credits,
			useDecomp:  cfg.decomp,
		}
		for _, s := range res.Witness.Submod {
			b.submod = append(b.submod, credit{s: s.S, i: s.I, j: s.J, left: new(big.Rat).Set(s.Weight)})
		}
		for _, m := range res.Witness.Mono {
			b.mono = append(b.mono, monoCredit{v: m.V, left: new(big.Rat).Set(m.Weight)})
		}
		found, err := b.search(delta.Clone())
		if err != nil {
			return nil, nil, err
		}
		if found {
			if err := Verify(delta, lambda, b.seq); err != nil {
				return nil, nil, fmt.Errorf("proofseq: internal: built sequence fails verification: %w", err)
			}
			sp.AddInt(obs.CounterSteps, int64(len(b.seq)))
			sp.AddInt("search_states", int64(len(b.visited)))
			return b.seq, delta, nil
		}
		lastStates = len(b.visited)
	}
	return nil, nil, fmt.Errorf("proofseq: search exhausted (%d states) without finding a proof sequence for %s",
		lastStates, res.Target.Label(q.VarNames))
}

type credit struct {
	s    query.VarSet
	i, j int
	left *big.Rat
}

type monoCredit struct {
	v    int
	left *big.Rat
}

type builder struct {
	q          *query.Query
	ctx        context.Context
	target     query.VarSet
	submod     []credit
	mono       []monoCredit
	visited    map[string]bool
	limit      int
	seq        Sequence
	useLifts   bool // general (non-elemental) submodularity lifts
	useCredits bool // witness-guided elemental steps
	useDecomp  bool // decomposition moves
}

// coverage returns the total weight of terms (∅, Y) with Y ⊇ target.
func (b *builder) coverage(pool Vec) *big.Rat {
	sum := new(big.Rat)
	for p, w := range pool {
		if p.X.Empty() && b.target.SubsetOf(p.Y) {
			sum.Add(sum, w)
		}
	}
	return sum
}

// finish emits the closing monotonicity steps that turn target-superset
// terms into one unit of (∅, target).
func (b *builder) finish(pool Vec) {
	need := big.NewRat(1, 1)
	need.Sub(need, pool.Get(Pair{X: 0, Y: b.target}))
	if need.Sign() <= 0 {
		return
	}
	// Deterministic order over superset terms.
	var ys []query.VarSet
	for p := range pool {
		if p.X.Empty() && p.Y != b.target && b.target.SubsetOf(p.Y) {
			ys = append(ys, p.Y)
		}
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	for _, y := range ys {
		if need.Sign() <= 0 {
			return
		}
		avail := pool.Get(Pair{X: 0, Y: y})
		take := new(big.Rat).Set(avail)
		if take.Cmp(need) > 0 {
			take.Set(need)
		}
		st := Step{Kind: Mono, X: b.target, Y: y, Weight: take}
		if err := Apply(pool, st); err != nil {
			panic("proofseq: internal: finish mono failed: " + err.Error())
		}
		b.seq = append(b.seq, st)
		need.Sub(need, take)
	}
}

// stateKey canonically encodes pool plus remaining credits.
func (b *builder) stateKey(pool Vec) string {
	var sb strings.Builder
	keys := make([]Pair, 0, len(pool))
	for p := range pool {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Y != keys[j].Y {
			return keys[i].Y < keys[j].Y
		}
		return keys[i].X < keys[j].X
	})
	for _, p := range keys {
		fmt.Fprintf(&sb, "%d|%d=%s;", p.X, p.Y, pool[p].RatString())
	}
	sb.WriteString("#")
	for _, c := range b.submod {
		sb.WriteString(c.left.RatString())
		sb.WriteByte(',')
	}
	for _, m := range b.mono {
		sb.WriteString(m.left.RatString())
		sb.WriteByte(',')
	}
	return sb.String()
}

type move struct {
	step      Step
	creditIdx int // index into submod or mono credits, -1 for none
	isMono    bool
}

// search runs depth-first over applicable moves; it appends the found
// steps to b.seq and reports success. Every expanded state polls the
// builder's context.
func (b *builder) search(pool Vec) (bool, error) {
	if err := guard.Poll(b.ctx); err != nil {
		return false, err
	}
	if b.coverage(pool).Cmp(big.NewRat(1, 1)) >= 0 {
		b.finish(pool)
		return true, nil
	}
	if len(b.visited) >= b.limit {
		return false, nil
	}
	key := b.stateKey(pool)
	if b.visited[key] {
		return false, nil
	}
	b.visited[key] = true

	for _, mv := range b.moves(pool) {
		next := pool.Clone()
		if err := Apply(next, mv.step); err != nil {
			continue
		}
		if mv.creditIdx >= 0 {
			if mv.isMono {
				b.mono[mv.creditIdx].left.Sub(b.mono[mv.creditIdx].left, mv.step.Weight)
			} else {
				b.submod[mv.creditIdx].left.Sub(b.submod[mv.creditIdx].left, mv.step.Weight)
			}
		}
		mark := len(b.seq)
		b.seq = append(b.seq, mv.step)
		found, err := b.search(next)
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
		b.seq = b.seq[:mark]
		if mv.creditIdx >= 0 {
			if mv.isMono {
				b.mono[mv.creditIdx].left.Add(b.mono[mv.creditIdx].left, mv.step.Weight)
			} else {
				b.submod[mv.creditIdx].left.Add(b.submod[mv.creditIdx].left, mv.step.Weight)
			}
		}
	}
	return false, nil
}

// moves enumerates candidate steps at the current pool, in priority
// order: submodularity lifts (credit-bounded), compositions,
// decompositions (witness-guided), then elemental monotonicities.
func (b *builder) moves(pool Vec) []move {
	var out []move

	// General submodularity lifts (rule R2 with arbitrary I, J — always
	// sound, no witness credit needed): lift a term h(Y|X) over a pooled
	// cardinality term h(Z) with Y ∩ Z = X, producing h(Z∪(Y\X) | Z),
	// which composes immediately with h(Z). Preferring these avoids
	// decomposition steps, which are what fork the PANDA-C circuit into
	// O(log N) branches — fewer decompositions mean polynomially smaller
	// polylog factors in the compiled circuit.
	var lifts []move
	if !b.useLifts {
		goto creditMoves
	}
	for p, w := range pool {
		if w.Sign() <= 0 {
			continue
		}
		gap := p.Y.Minus(p.X)
		for q0, wz := range pool {
			if !q0.X.Empty() || wz.Sign() <= 0 {
				continue
			}
			z := q0.Y
			if z == p.Y || !p.X.SubsetOf(z) || !z.Intersect(gap).Empty() {
				continue
			}
			lifts = append(lifts, move{
				step:      Step{Kind: Submod, I: p.Y, J: z, Weight: minRat(w, wz)},
				creditIdx: -1,
			})
		}
	}
	sortMoves(lifts)
	out = append(out, lifts...)

creditMoves:
	// Submodularity lifts: credit (S; i, j) consumes (S, S∪i) or (S, S∪j).
	if !b.useCredits {
		goto compMoves
	}
	for ci := range b.submod {
		c := &b.submod[ci]
		if c.left.Sign() <= 0 {
			continue
		}
		for _, orient := range [2][2]int{{c.i, c.j}, {c.j, c.i}} {
			consumed := Pair{X: c.s, Y: c.s.Add(orient[0])}
			avail := pool.Get(consumed)
			if avail.Sign() <= 0 {
				continue
			}
			w := minRat(avail, c.left)
			out = append(out, move{
				step: Step{
					Kind:   Submod,
					I:      c.s.Add(orient[0]),
					J:      c.s.Add(orient[1]),
					Weight: w,
				},
				creditIdx: ci,
			})
		}
	}

compMoves:
	// Compositions: (∅, X) + (X, Y) -> (∅, Y).
	var comps []move
	for p, w := range pool {
		if p.X.Empty() || w.Sign() <= 0 {
			continue
		}
		base := pool.Get(Pair{X: 0, Y: p.X})
		if base.Sign() <= 0 {
			continue
		}
		comps = append(comps, move{
			step:      Step{Kind: Comp, X: p.X, Y: p.Y, Weight: minRat(w, base)},
			creditIdx: -1,
		})
	}
	sortMoves(comps)
	out = append(out, comps...)

	// Decompositions, witness guided: split (∅, Y) at X when (a) some
	// remaining submodularity credit consumes (X, Y), or (b) some pooled
	// conditional term is conditioned on X (enabling a future
	// composition), or (c) with general lifts enabled, splitting enables
	// a lift over another pooled relation.
	if !b.useDecomp {
		return out
	}
	candidates := map[Pair]bool{}
	for ci := range b.submod {
		c := &b.submod[ci]
		if c.left.Sign() <= 0 || c.s.Empty() {
			continue
		}
		candidates[Pair{X: c.s, Y: c.s.Add(c.i)}] = true
		candidates[Pair{X: c.s, Y: c.s.Add(c.j)}] = true
	}
	for p := range pool {
		if !p.X.Empty() {
			for q0, w := range pool {
				if q0.X.Empty() && w.Sign() > 0 && p.X.SubsetOf(q0.Y) && p.X != q0.Y {
					candidates[Pair{X: p.X, Y: q0.Y}] = true
				}
			}
		}
	}
	var decomps []move
	for cand := range candidates {
		avail := pool.Get(Pair{X: 0, Y: cand.Y})
		if avail.Sign() <= 0 || cand.X.Empty() || !cand.X.SubsetOf(cand.Y) || cand.X == cand.Y {
			continue
		}
		decomps = append(decomps, move{
			step:      Step{Kind: Decomp, X: cand.X, Y: cand.Y, Weight: new(big.Rat).Set(avail)},
			creditIdx: -1,
		})
	}
	sortMoves(decomps)
	out = append(out, decomps...)

	// Elemental monotonicities from the witness: (∅, full) -> (∅, full\v).
	full := b.q.AllVars()
	for mi := range b.mono {
		m := &b.mono[mi]
		if m.left.Sign() <= 0 {
			continue
		}
		avail := pool.Get(Pair{X: 0, Y: full})
		if avail.Sign() <= 0 {
			continue
		}
		x := full.Remove(m.v)
		if x.Empty() {
			continue
		}
		out = append(out, move{
			step:      Step{Kind: Mono, X: x, Y: full, Weight: minRat(avail, m.left)},
			creditIdx: mi,
			isMono:    true,
		})
	}
	return out
}

func minRat(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return new(big.Rat).Set(a)
	}
	return new(big.Rat).Set(b)
}

func sortMoves(ms []move) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i].step, ms[j].step
		if a.I != b.I {
			return a.I < b.I
		}
		if a.J != b.J {
			return a.J < b.J
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Weight.Cmp(b.Weight) < 0
	})
}
