// Canonical fingerprints of (query, degree-constraint) pairs.
//
// A compiled circuit is data independent: it is a function of the query
// hypergraph and the constraint set alone, never of a database. Two
// requests whose queries differ only by variable names, atom order, or
// constraint order therefore denote the *same* circuit, and a serving
// engine should compile it once. Fingerprint makes that sharing sound:
// it hashes a canonical form of the pair obtained by folding repeated
// atoms of a full query, alpha-renaming variables into a canonical order
// (computed by color refinement plus individualization over the
// constraint-annotated hypergraph), sorting atoms, and sorting
// constraints.
//
// For full queries the fingerprint is the query's identity, not just
// its shape's. Every variable of a full CQ is a head variable, so a
// homomorphism that fixes the head is the identity and the query's core
// is its set of distinct (relation, variable tuple) atoms: two full CQs
// over the same head are equivalent iff those sets are equal. Folding
// repeated atoms therefore makes equal fingerprints coincide with
// Equivalent for full queries under one constraint set, and the
// redundant atom is never compiled. Two things are deliberately left
// as given. The constraint set is hashed as written — a loose extra
// bound on the same (X, Y) is a different pair — because callers mint
// fresh fingerprints that way. Non-full queries keep every atom: no
// circuit plan exists for them to share, and the RAM tier evaluates
// the request as written.
//
// Equal fingerprints imply equal canonical forms (up to SHA-256
// collision), so a cache keyed by Fingerprint never serves a plan for a
// different query. The converse — equivalent full pairs always mapping
// to equal fingerprints — holds whenever the canonical search completes
// within its node budget (Canonical.Complete); a truncated search can
// only cost a cache miss, never a wrong answer.
package query

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Fingerprint identifies a (query, DC set) pair up to variable renaming,
// atom/constraint reordering and, for full queries, atom repetition.
type Fingerprint [sha256.Size]byte

// String returns the full hex fingerprint.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 8 hex digits, for logs and metrics.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:4]) }

// Canonical is the canonicalized form of a (Query, DCSet) pair: the
// alpha-renamed query with sorted atoms, the remapped sorted constraint
// set, their fingerprint, and the variable mapping that carries results
// of the canonical plan back to the original query's names.
type Canonical struct {
	// Query is a fresh canonical copy: variables are renamed x0..x{n-1}
	// in canonical order and atoms are sorted. For a full query it is
	// the core: each distinct (relation, variable tuple) atom once, so
	// it may have fewer atoms than the input.
	Query *Query
	// DCs is the constraint set remapped onto canonical variables and
	// sorted.
	DCs DCSet
	// FP is the SHA-256 of the canonical encoding.
	FP Fingerprint
	// VarMap maps original variable ids to canonical variable ids.
	VarMap []int
	// Complete reports whether the canonical-labeling search finished
	// within its budget. When false the fingerprint is still sound (it
	// hashes the form actually chosen) but isomorphic inputs are no
	// longer guaranteed to collide.
	Complete bool
}

// QueryFingerprint returns the fingerprint of the pair without the rest
// of the canonical form.
func QueryFingerprint(q *Query, dcs DCSet) (Fingerprint, error) {
	c, err := Canonicalize(q, dcs)
	if err != nil {
		return Fingerprint{}, err
	}
	return c.FP, nil
}

// Canonicalize computes the canonical form of a (query, DC set) pair.
// The query and constraints must validate.
func Canonicalize(q *Query, dcs DCSet) (*Canonical, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := dcs.Validate(q); err != nil {
		return nil, err
	}
	q = foldRepeatedAtoms(q)
	cz := &canonizer{q: q, dcs: dcs, n: q.NVars(), seen: map[string]struct{}{}}
	cz.search(cz.refine(make([]int, cz.n)))
	perm := cz.bestPerm
	if perm == nil {
		// The node budget died before the first leaf (cannot happen for
		// n ≤ MaxVars, but stay total): fall back to identity.
		perm = make([]int, cz.n)
		for v := range perm {
			perm[v] = v
		}
		cz.truncated = true
	}

	canon := &Query{VarNames: make([]string, cz.n), Free: mapSet(q.Free, perm)}
	for i := range canon.VarNames {
		canon.VarNames[i] = "x" + strconv.Itoa(i)
	}
	for _, a := range q.Atoms {
		vars := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			vars[i] = perm[v]
		}
		canon.Atoms = append(canon.Atoms, Atom{Name: a.Name, Vars: vars})
	}
	sort.SliceStable(canon.Atoms, func(i, j int) bool { return atomLess(canon.Atoms[i], canon.Atoms[j]) })
	cdcs := make(DCSet, len(dcs))
	for i, dc := range dcs {
		cdcs[i] = DegreeConstraint{X: mapSet(dc.X, perm), Y: mapSet(dc.Y, perm), N: dc.N}
	}
	sort.SliceStable(cdcs, func(i, j int) bool { return dcLess(cdcs[i], cdcs[j]) })

	return &Canonical{
		Query:    canon,
		DCs:      cdcs,
		FP:       sha256.Sum256(encodePair(canon, cdcs)),
		VarMap:   perm,
		Complete: !cz.truncated,
	}, nil
}

// foldRepeatedAtoms returns a full query without the atoms that repeat
// an earlier atom's relation name and variable tuple (see the package
// comment). The input is returned as is when nothing repeats or the
// query is not full; otherwise a copy sharing everything but the atom
// list.
func foldRepeatedAtoms(q *Query) *Query {
	if !q.IsFull() {
		return q
	}
	// Nothing repeats on nearly every request: find the first repeat
	// before allocating, so the common path costs compares only.
	first := 0
	for first < len(q.Atoms) && !repeatsEarlier(q.Atoms, first) {
		first++
	}
	if first == len(q.Atoms) {
		return q
	}
	kept := append(make([]Atom, 0, len(q.Atoms)-1), q.Atoms[:first]...)
	for i := first + 1; i < len(q.Atoms); i++ {
		if !repeatsEarlier(q.Atoms, i) {
			kept = append(kept, q.Atoms[i])
		}
	}
	folded := *q
	folded.Atoms = kept
	return &folded
}

// repeatsEarlier reports whether atoms[i] has the name and variable
// tuple of some atoms[j], j < i.
func repeatsEarlier(atoms []Atom, i int) bool {
	for _, b := range atoms[:i] {
		if b.Name == atoms[i].Name && slices.Equal(b.Vars, atoms[i].Vars) {
			return true
		}
	}
	return false
}

// Budget for the individualization-refinement search. Queries have at
// most MaxVars variables, and atom names break most symmetry during
// refinement, so real workloads stay far below these caps; they exist so
// adversarial (fuzzed) inputs with large automorphism groups terminate.
const (
	canonMaxNodes  = 4096
	canonMaxLeaves = 512
)

// canonizer runs a small individualization-refinement canonical-labeling
// search over the variables of a query, with atoms (name, arity, and
// positions) and degree constraints (sets and bounds) as the invariant
// structure.
type canonizer struct {
	q             *Query
	dcs           DCSet
	n             int
	best          []byte
	bestPerm      []int
	nodes, leaves int
	truncated     bool
	seen          map[string]struct{} // colorings already expanded
}

// refine iterates color refinement until the partition stabilizes: each
// round a variable's color absorbs the colors of every atom occurrence
// and constraint membership it participates in.
func (cz *canonizer) refine(colors []int) []int {
	classes := countClasses(colors)
	for {
		sigs := make([]string, cz.n)
		for v := 0; v < cz.n; v++ {
			var parts []string
			for _, a := range cz.q.Atoms {
				for pos, w := range a.Vars {
					if w != v {
						continue
					}
					var sb strings.Builder
					fmt.Fprintf(&sb, "a:%s/%d@%d:", a.Name, len(a.Vars), pos)
					for _, u := range a.Vars {
						sb.WriteString(strconv.Itoa(colors[u]))
						sb.WriteByte(',')
					}
					parts = append(parts, sb.String())
				}
			}
			for _, dc := range cz.dcs {
				if !dc.Y.Has(v) && !dc.X.Has(v) {
					continue
				}
				parts = append(parts, fmt.Sprintf("d:%t%t:%s:%s;%s",
					dc.X.Has(v), dc.Y.Has(v), strconv.FormatFloat(dc.N, 'x', -1, 64),
					classColors(dc.X, colors), classColors(dc.Y, colors)))
			}
			sort.Strings(parts)
			sigs[v] = fmt.Sprintf("%d|%t|%s", colors[v], cz.q.Free.Has(v), strings.Join(parts, "&"))
		}
		colors = denseRank(sigs)
		if nc := countClasses(colors); nc == classes {
			return colors
		} else {
			classes = nc
		}
	}
}

// search explores the refinement tree, individualizing one variable of
// the smallest ambiguous color class per level, and keeps the
// lexicographically smallest leaf encoding.
func (cz *canonizer) search(colors []int) {
	cz.nodes++
	if cz.nodes > canonMaxNodes || cz.leaves > canonMaxLeaves {
		cz.truncated = true
		return
	}
	key := fmt.Sprint(colors)
	if _, dup := cz.seen[key]; dup {
		// The remaining search depends only on the coloring and the
		// fixed structure, so an identical coloring reached along a
		// different branch repeats work already done.
		return
	}
	cz.seen[key] = struct{}{}

	// Find the smallest non-singleton class (ties: smallest color).
	counts := make([]int, cz.n+1)
	for _, c := range colors {
		counts[c]++
	}
	target, targetSize := -1, cz.n+1
	for c, k := range counts {
		if k > 1 && k < targetSize {
			target, targetSize = c, k
		}
	}
	if target < 0 {
		// Discrete: colors form a bijection onto 0..n-1.
		cz.leaves++
		perm := append([]int(nil), colors...)
		enc := cz.encode(perm)
		if cz.best == nil || bytes.Compare(enc, cz.best) < 0 {
			cz.best, cz.bestPerm = enc, perm
		}
		return
	}
	for v := 0; v < cz.n; v++ {
		if colors[v] != target {
			continue
		}
		next := append([]int(nil), colors...)
		next[v] = cz.n // fresh color: individualize v
		cz.search(cz.refine(next))
	}
}

// encode renders the pair under the given variable relabeling, with
// atoms and constraints sorted, as the byte string whose minimum over
// all discrete relabelings defines the canonical form.
func (cz *canonizer) encode(perm []int) []byte {
	canon := &Query{Free: mapSet(cz.q.Free, perm), VarNames: make([]string, cz.n)}
	for _, a := range cz.q.Atoms {
		vars := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			vars[i] = perm[v]
		}
		canon.Atoms = append(canon.Atoms, Atom{Name: a.Name, Vars: vars})
	}
	sort.SliceStable(canon.Atoms, func(i, j int) bool { return atomLess(canon.Atoms[i], canon.Atoms[j]) })
	dcs := make(DCSet, len(cz.dcs))
	for i, dc := range cz.dcs {
		dcs[i] = DegreeConstraint{X: mapSet(dc.X, perm), Y: mapSet(dc.Y, perm), N: dc.N}
	}
	sort.SliceStable(dcs, func(i, j int) bool { return dcLess(dcs[i], dcs[j]) })
	return encodePair(canon, dcs)
}

// encodePair serializes an already-canonical pair (variable names are
// deliberately excluded: they do not affect the denoted circuit).
func encodePair(q *Query, dcs DCSet) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "v%d;f%x;", len(q.VarNames), uint32(q.Free))
	for _, a := range q.Atoms {
		b.WriteString(a.Name)
		b.WriteByte('(')
		for i, v := range a.Vars {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteString(");")
	}
	for _, dc := range dcs {
		fmt.Fprintf(&b, "dc%x|%x<=%s;", uint32(dc.Y), uint32(dc.X), strconv.FormatFloat(dc.N, 'x', -1, 64))
	}
	return b.Bytes()
}

func atomLess(a, b Atom) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if len(a.Vars) != len(b.Vars) {
		return len(a.Vars) < len(b.Vars)
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return a.Vars[i] < b.Vars[i]
		}
	}
	return false
}

func dcLess(a, b DegreeConstraint) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.N < b.N
}

// mapSet pushes a variable set through a relabeling.
func mapSet(s VarSet, perm []int) VarSet {
	out := VarSet(0)
	for _, v := range s.Vars() {
		out = out.Add(perm[v])
	}
	return out
}

// classColors renders the sorted multiset of colors of a variable set.
func classColors(s VarSet, colors []int) string {
	cs := make([]int, 0, s.Len())
	for _, v := range s.Vars() {
		cs = append(cs, colors[v])
	}
	sort.Ints(cs)
	var sb strings.Builder
	for _, c := range cs {
		sb.WriteString(strconv.Itoa(c))
		sb.WriteByte('.')
	}
	return sb.String()
}

// denseRank maps signatures to dense color ids in signature order.
func denseRank(sigs []string) []int {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	rank := make(map[string]int, len(uniq))
	for _, s := range uniq {
		if _, ok := rank[s]; !ok {
			rank[s] = len(rank)
		}
	}
	out := make([]int, len(sigs))
	for i, s := range sigs {
		out[i] = rank[s]
	}
	return out
}

func countClasses(colors []int) int {
	seen := map[int]struct{}{}
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}
