// Package ghd implements generalized hypertree decompositions (Section
// 6.1, Definition 1): enumeration via elimination orderings, structural
// validation (edge coverage and the running-intersection property),
// free-connex handling for non-full queries, and the width measures the
// paper's output-sensitive results are stated in — fhtw (fractional
// hypertree width), da-fhtw (degree-aware, equation (6)), and da-subw
// (degree-aware submodular width, Section 7).
package ghd

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"circuitql/internal/bound"
	"circuitql/internal/guard"
	"circuitql/internal/lp"
	"circuitql/internal/query"
)

// Decomp is a rooted generalized hypertree decomposition: Bags[0] is the
// root and Parent[i] is the parent index of bag i (Parent[0] = -1).
type Decomp struct {
	Bags   []query.VarSet
	Parent []int
}

// Children returns the child indices of bag i.
func (d *Decomp) Children(i int) []int {
	var out []int
	for j, p := range d.Parent {
		if p == i {
			out = append(out, j)
		}
	}
	return out
}

// PostOrder returns the bag indices so that every bag appears after all
// of its children (the bottom-up order of the Yannakakis passes).
func (d *Decomp) PostOrder() []int {
	out := make([]int, 0, len(d.Bags))
	var walk func(int)
	walk = func(i int) {
		for _, ch := range d.Children(i) {
			walk(ch)
		}
		out = append(out, i)
	}
	walk(0)
	return out
}

// Label renders the decomposition for debugging.
func (d *Decomp) Label(names []string) string {
	s := ""
	for i, b := range d.Bags {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%s(p%d)", i, b.Label(names), d.Parent[i])
	}
	return s
}

// Validate checks Definition 1 plus rootedness: every hyperedge (and the
// free-variable set for non-full, non-Boolean queries) is contained in
// some bag; for every variable the bags containing it form a connected
// subtree; the parent array encodes a tree rooted at 0.
func (d *Decomp) Validate(q *query.Query) error {
	if len(d.Bags) == 0 || len(d.Bags) != len(d.Parent) {
		return fmt.Errorf("ghd: malformed decomposition")
	}
	if d.Parent[0] != -1 {
		return fmt.Errorf("ghd: bag 0 must be the root")
	}
	for i := 1; i < len(d.Parent); i++ {
		if d.Parent[i] < 0 || d.Parent[i] >= len(d.Bags) {
			return fmt.Errorf("ghd: bag %d has invalid parent", i)
		}
	}
	// Acyclicity/rootedness: every bag reaches the root.
	for i := range d.Bags {
		seen := map[int]bool{}
		for j := i; j != 0; j = d.Parent[j] {
			if seen[j] {
				return fmt.Errorf("ghd: parent cycle at bag %d", i)
			}
			seen[j] = true
		}
	}
	// Edge coverage.
	for _, e := range q.Edges() {
		if !d.covered(e) {
			return fmt.Errorf("ghd: hyperedge %s not covered", e.Label(q.VarNames))
		}
	}
	if !q.IsFull() && !q.IsBoolean() && !d.covered(q.Free) {
		return fmt.Errorf("ghd: free variables %s not contained in one bag (free-connex requirement)",
			q.Free.Label(q.VarNames))
	}
	// Running intersection.
	for v := 0; v < q.NVars(); v++ {
		var holding []int
		for i, b := range d.Bags {
			if b.Has(v) {
				holding = append(holding, i)
			}
		}
		if len(holding) == 0 {
			return fmt.Errorf("ghd: variable %s in no bag", query.SetOf(v).Label(q.VarNames))
		}
		if !d.connected(holding) {
			return fmt.Errorf("ghd: bags holding %s are disconnected", query.SetOf(v).Label(q.VarNames))
		}
	}
	return nil
}

func (d *Decomp) covered(s query.VarSet) bool {
	for _, b := range d.Bags {
		if s.SubsetOf(b) {
			return true
		}
	}
	return false
}

// connected reports whether the induced subgraph on the given bag
// indices is connected in the tree.
func (d *Decomp) connected(idx []int) bool {
	in := map[int]bool{}
	for _, i := range idx {
		in[i] = true
	}
	// Union-find over tree paths: two bags in the set are connected iff
	// the tree path between them stays in the set. Equivalent check:
	// count set members whose parent is not in the set; connected iff
	// exactly one such "local root".
	roots := 0
	for _, i := range idx {
		if i == 0 || !in[d.Parent[i]] {
			roots++
		}
	}
	return roots == 1
}

// Enumerate generates decompositions of q from vertex elimination
// orderings, deduplicated, capped at limit (0 means no cap). For
// non-full non-Boolean queries the free variables are treated as an
// extra clique and the tree is rooted at a bag containing them
// (the free-connex restriction of Section 6.1, realized by the standard
// H ∪ {free} characterization).
func Enumerate(q *query.Query, limit int) []Decomp {
	n := q.NVars()
	cliques := q.Edges()
	freeConnex := !q.IsFull() && !q.IsBoolean()
	if freeConnex {
		cliques = append(cliques, q.Free)
	}

	var out []Decomp
	seen := map[string]bool{}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	permute(perm, func(order []int) bool {
		d := fromElimination(n, cliques, order)
		if freeConnex {
			d = rerootAt(d, q.Free)
			if d == nil {
				return true
			}
		}
		key := d.canonical()
		if !seen[key] {
			seen[key] = true
			out = append(out, *d)
		}
		return limit == 0 || len(out) < limit
	})
	return out
}

// permute enumerates permutations of xs, invoking fn on each; fn returns
// false to stop.
func permute(xs []int, fn func([]int) bool) {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(xs) {
			return fn(xs)
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			if !rec(k + 1) {
				xs[k], xs[i] = xs[i], xs[k]
				return false
			}
			xs[k], xs[i] = xs[i], xs[k]
		}
		return true
	}
	rec(0)
}

// fromElimination builds a tree decomposition from an elimination order
// over the primal graph of the cliques, then absorbs non-maximal bags.
func fromElimination(n int, cliques []query.VarSet, order []int) *Decomp {
	adj := make([]query.VarSet, n)
	for _, cl := range cliques {
		for _, v := range cl.Vars() {
			adj[v] = adj[v].Union(cl).Remove(v)
		}
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	bags := make([]query.VarSet, n)
	eliminated := query.VarSet(0)
	for _, v := range order {
		later := adj[v].Minus(eliminated)
		bag := later.Add(v)
		bags[v] = bag
		// Connect the later neighbors into a clique.
		for _, u := range later.Vars() {
			adj[u] = adj[u].Union(later).Remove(u)
		}
		eliminated = eliminated.Add(v)
	}
	// Tree: parent of bag(v) is bag(u) where u is the earliest-eliminated
	// vertex of bag(v)\{v}; the last vertex's bag is the root.
	parentVar := make([]int, n)
	for v := 0; v < n; v++ {
		parentVar[v] = -1
		best := -1
		for _, u := range bags[v].Remove(v).Vars() {
			if pos[u] > pos[v] && (best == -1 || pos[u] < pos[best]) {
				best = u
			}
		}
		parentVar[v] = best
	}

	// Absorb non-maximal bags into their parents (keeps widths, shrinks
	// the tree). Build child->parent on variable ids, then compact.
	root := order[n-1]
	keep := make([]bool, n)
	for v := 0; v < n; v++ {
		keep[v] = true
	}
	rep := make([]int, n) // representative bag after absorption
	for v := range rep {
		rep[v] = v
	}
	find := func(v int) int {
		for rep[v] != v {
			v = rep[v]
		}
		return v
	}
	// Process in elimination order so children absorb upward.
	for _, v := range order {
		if v == root || parentVar[v] == -1 {
			continue
		}
		p := find(parentVar[v])
		if bags[v].SubsetOf(bags[p]) {
			keep[v] = false
			rep[v] = p
		} else if bags[p].SubsetOf(bags[v]) {
			// Absorb the parent downward: v takes over p's bag position.
			bags[p] = bags[v]
			keep[v] = false
			rep[v] = p
		}
	}

	// Compact into Decomp, rooted at root's representative.
	rootRep := find(root)
	idx := map[int]int{rootRep: 0}
	d := &Decomp{Bags: []query.VarSet{bags[rootRep]}, Parent: []int{-1}}
	var orderKept []int
	for i := n - 1; i >= 0; i-- { // reverse elimination order: parents first
		v := order[i]
		if !keep[v] || v == rootRep {
			continue
		}
		orderKept = append(orderKept, v)
	}
	for _, v := range orderKept {
		pi := 0
		if parentVar[v] != -1 {
			// Parent not yet placed (possible after downward absorption)
			// or a disconnected component: fall back to the root.
			if j, ok := idx[find(parentVar[v])]; ok {
				pi = j
			}
		}
		idx[v] = len(d.Bags)
		d.Bags = append(d.Bags, bags[v])
		d.Parent = append(d.Parent, pi)
	}
	return d
}

// rerootAt re-roots the decomposition at a bag containing s (nil if no
// bag contains s).
func rerootAt(d *Decomp, s query.VarSet) *Decomp {
	at := -1
	for i, b := range d.Bags {
		if s.SubsetOf(b) {
			at = i
			break
		}
	}
	if at < 0 {
		return nil
	}
	if at == 0 {
		return d
	}
	// Reverse parent pointers along the path from at to the old root.
	parent := append([]int(nil), d.Parent...)
	path := []int{at}
	for v := at; parent[v] != -1; v = parent[v] {
		path = append(path, parent[v])
	}
	for i := len(path) - 1; i > 0; i-- {
		parent[path[i]] = path[i-1]
	}
	parent[at] = -1
	// Renumber so the new root is index 0.
	mapping := make([]int, len(d.Bags))
	mapping[at] = 0
	next := 1
	for i := range d.Bags {
		if i != at {
			mapping[i] = next
			next++
		}
	}
	nd := &Decomp{Bags: make([]query.VarSet, len(d.Bags)), Parent: make([]int, len(d.Bags))}
	for i := range d.Bags {
		nd.Bags[mapping[i]] = d.Bags[i]
		if parent[i] == -1 {
			nd.Parent[mapping[i]] = -1
		} else {
			nd.Parent[mapping[i]] = mapping[parent[i]]
		}
	}
	return nd
}

// canonical returns a dedup key: the sorted bag list plus sorted edge
// list over bag contents.
func (d *Decomp) canonical() string {
	bags := append([]query.VarSet(nil), d.Bags...)
	sort.Slice(bags, func(i, j int) bool { return bags[i] < bags[j] })
	key := fmt.Sprint(bags, "|")
	type edge struct{ a, b query.VarSet }
	var edges []edge
	for i, p := range d.Parent {
		if p < 0 {
			continue
		}
		a, b := d.Bags[i], d.Bags[p]
		if a > b {
			a, b = b, a
		}
		edges = append(edges, edge{a, b})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	return key + fmt.Sprint(edges)
}

// FracCoverWidthCtx returns the fractional edge cover number of the bag
// using the query's hyperedges; the LP polls ctx.
func FracCoverWidthCtx(ctx context.Context, q *query.Query, bag query.VarSet) (*big.Rat, error) {
	edges := q.Edges()
	p := lp.NewProblem(len(edges), lp.Minimize)
	for i := range edges {
		p.SetObjectiveInt(i, 1)
	}
	for _, v := range bag.Vars() {
		var terms []lp.Term
		for i, e := range edges {
			if e.Has(v) {
				terms = append(terms, lp.Term{Var: i, Coef: lp.Rat(1, 1)})
			}
		}
		if len(terms) == 0 {
			return nil, fmt.Errorf("ghd: bag variable %d in no edge", v)
		}
		p.AddGE(terms, lp.Rat(1, 1))
	}
	sol, err := p.SolveCtx(ctx)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("ghd: edge cover LP %v", sol.Status)
	}
	return sol.Objective, nil
}

// FhtwCtx returns the fractional hypertree width of q (free-connex for
// non-full queries) and a witnessing decomposition; the per-bag
// edge-cover LPs poll ctx.
func FhtwCtx(ctx context.Context, q *query.Query) (*big.Rat, *Decomp, error) {
	decomps := Enumerate(q, 0)
	if len(decomps) == 0 {
		return nil, nil, fmt.Errorf("ghd: no decompositions for %s", q)
	}
	var best *big.Rat
	var bestD *Decomp
	for i := range decomps {
		d := &decomps[i]
		w := new(big.Rat)
		for _, bag := range d.Bags {
			bw, err := FracCoverWidthCtx(ctx, q, bag)
			if err != nil {
				return nil, nil, err
			}
			if bw.Cmp(w) > 0 {
				w = bw
			}
		}
		if best == nil || w.Cmp(best) < 0 {
			best, bestD = w, d
		}
	}
	return best, bestD, nil
}

// DAFhtwCtx returns the degree-aware fractional hypertree width of q
// under dcs, in bits: min over decompositions of max over bags of
// max{h(bag) : h ∈ Γ ∩ HDC} (equation (6)), together with the best
// decomposition. For non-full non-Boolean queries decompositions are
// restricted to free-connex ones. Each bag's polymatroid-bound LP polls
// ctx and charges the attached budget.
func DAFhtwCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*big.Rat, *Decomp, error) {
	decomps := Enumerate(q, 0)
	if len(decomps) == 0 {
		return nil, nil, fmt.Errorf("ghd: no decompositions for %s", q)
	}
	var best *big.Rat
	var bestD *Decomp
	for i := range decomps {
		d := &decomps[i]
		w, err := decompDABits(ctx, q, dcs, d)
		if err != nil {
			return nil, nil, err
		}
		if best == nil || w.Cmp(best) < 0 {
			best, bestD = w, d
		}
	}
	return best, bestD, nil
}

// decompDABits returns max over bags of the polymatroid bound, in bits.
func decompDABits(ctx context.Context, q *query.Query, dcs query.DCSet, d *Decomp) (*big.Rat, error) {
	w := new(big.Rat)
	for _, bag := range d.Bags {
		res, err := bound.LogBoundCtx(ctx, q, dcs, bag)
		if err != nil {
			return nil, err
		}
		if res.LogValue.Cmp(w) > 0 {
			w = res.LogValue
		}
	}
	return w, nil
}

// DASubwCtx returns the degree-aware submodular width of q under dcs in
// bits (Section 7): max over h ∈ Γ ∩ HDC of min over decompositions of
// max over bags of h(bag). Exactly: for each way of selecting one bag
// per decomposition (the bag attaining each inner maximum), solve
// max z s.t. z ≤ h(selected bag) for all selections, and take the best
// selector. The search over selectors is branch-and-bound — adding a
// decomposition's constraint can only lower the LP value, so partial
// selectors that already fall below the best complete one are pruned —
// with LP results memoized by the selected-bag set. Decomposition
// enumeration is capped at maxDecomps (an upper bound on the true
// da-subw results if the cap truncates; the catalog queries fit well
// inside it). The branch-and-bound polls ctx at every node and the
// selector LPs poll it too.
func DASubwCtx(ctx context.Context, q *query.Query, dcs query.DCSet, maxDecomps int) (*big.Rat, error) {
	if maxDecomps <= 0 {
		maxDecomps = 24
	}
	decomps := Enumerate(q, maxDecomps)
	if len(decomps) == 0 {
		return nil, fmt.Errorf("ghd: no decompositions for %s", q)
	}
	// Only the bag sets matter here; deduplicate and drop non-maximal
	// bags within each set (a superset bag always dominates in the inner
	// max).
	seen := map[string]bool{}
	var bagSets [][]query.VarSet
	for i := range decomps {
		bags := maximalBags(decomps[i].Bags)
		key := fmt.Sprint(bags)
		if !seen[key] {
			seen[key] = true
			bagSets = append(bagSets, bags)
		}
	}
	// Fewest-bags first: cheapest branching at the top.
	sort.Slice(bagSets, func(i, j int) bool { return len(bagSets[i]) < len(bagSets[j]) })

	memo := map[string]*big.Rat{}
	value := func(selected []query.VarSet) (*big.Rat, error) {
		bags := append([]query.VarSet(nil), selected...)
		sort.Slice(bags, func(i, j int) bool { return bags[i] < bags[j] })
		key := fmt.Sprint(bags)
		if v, ok := memo[key]; ok {
			return v, nil
		}
		v, err := selectorValue(ctx, q, dcs, bags)
		if err != nil {
			return nil, err
		}
		memo[key] = v
		return v, nil
	}

	best := new(big.Rat) // da-subw ≥ 0
	var selected []query.VarSet
	var rec func(i int) error
	rec = func(i int) error {
		if err := guard.Poll(ctx); err != nil {
			return err
		}
		if len(selected) > 0 {
			v, err := value(selected)
			if err != nil {
				return err
			}
			if v == nil || v.Cmp(best) <= 0 {
				return nil // pruned: no extension can beat best
			}
			if i == len(bagSets) {
				best = v
				return nil
			}
		}
		if i == len(bagSets) {
			return nil
		}
		for _, bag := range bagSets[i] {
			selected = append(selected, bag)
			if err := rec(i + 1); err != nil {
				return err
			}
			selected = selected[:len(selected)-1]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return best, nil
}

// maximalBags drops bags contained in other bags of the same set.
func maximalBags(bags []query.VarSet) []query.VarSet {
	var out []query.VarSet
	for i, b := range bags {
		dominated := false
		for j, o := range bags {
			if i != j && b.SubsetOf(o) && (b != o || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectorValue solves max z s.t. h ∈ Γ ∩ HDC and h(bag) ≥ z for every
// selected bag. The optimum lower-bounds min_i max_t h(bag); maximizing
// over selectors gives da-subw exactly.
func selectorValue(ctx context.Context, q *query.Query, dcs query.DCSet, bags []query.VarSet) (*big.Rat, error) {
	// The bound LP with one more variable z, maximized under z ≤ h(bag_i):
	// the maximum of the minimum of several targets.
	p := bound.PolymatroidLP(q, dcs, 1)
	z := p.NumVars() - 1
	p.SetObjectiveInt(z, 1)
	for _, bag := range bags {
		p.AddGE([]lp.Term{{Var: int(bag) - 1, Coef: lp.Rat(1, 1)}, {Var: z, Coef: lp.Rat(-1, 1)}}, new(big.Rat))
	}
	sol, err := p.SolveCtx(ctx)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
		return sol.Objective, nil
	case lp.Unbounded:
		return nil, fmt.Errorf("ghd: da-subw unbounded (insufficient constraints)")
	default:
		return nil, nil // infeasible selector contributes nothing
	}
}
