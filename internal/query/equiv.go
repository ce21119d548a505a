// Exact conjunctive-query equivalence via homomorphisms.
//
// The classic CQ theorem (Chandra-Merlin): Q_a ⊆ Q_b iff there is a
// homomorphism from Q_b to Q_a mapping head to head, and equivalence is
// containment both ways. The check is unconditional — two hom-equivalent
// queries agree on *every* database — so it is sound to ignore degree
// constraints here: constraints can only make more pairs equivalent,
// never fewer. Nothing on the serving path calls this: for full queries
// Canonicalize decides the same question by folding repeated atoms, and
// this search is the reference oracle its tests compare fingerprints
// against.
package query

// Budgets for the homomorphism search. CQ containment is NP-complete in
// the query size, but served queries are tiny; the caps exist so an
// adversarial shape degrades to a conservative "not equivalent" instead
// of an expensive search. Exhaustion can only cost sharing, never
// soundness.
const (
	homMaxAtoms = 12
	homMaxSteps = 1 << 16
)

// Equivalent reports whether a and b denote the same function, with
// pairs giving the output correspondence: pairs[i] = {va, vb} matches
// free variable va of a with free variable vb of b. The correspondence
// must be a bijection covering both free sets. The check is exact —
// true is a proof of equivalence under the correspondence — and
// conservative: a false may also mean the search budget ran out.
func Equivalent(a, b *Query, pairs [][2]int) bool {
	if len(a.Atoms) > homMaxAtoms || len(b.Atoms) > homMaxAtoms {
		return false
	}
	if a.Free.Len() != len(pairs) || b.Free.Len() != len(pairs) {
		return false
	}
	ab := make(map[int]int, len(pairs))
	ba := make(map[int]int, len(pairs))
	for _, p := range pairs {
		va, vb := p[0], p[1]
		if va < 0 || va >= a.NVars() || vb < 0 || vb >= b.NVars() ||
			!a.Free.Has(va) || !b.Free.Has(vb) {
			return false
		}
		if old, dup := ab[va]; dup && old != vb {
			return false
		}
		if old, dup := ba[vb]; dup && old != va {
			return false
		}
		ab[va], ba[vb] = vb, va
	}
	if len(ab) != len(pairs) || len(ba) != len(pairs) {
		return false
	}
	return hom(b, a, ba) && hom(a, b, ab)
}

// hom reports whether a homomorphism from src to dst exists: a total
// variable mapping extending fixed under which every src atom maps
// positionwise onto some dst atom with the same relation name.
// Backtracking over src atoms, bounded by homMaxSteps candidate
// probes; exhaustion reports false.
func hom(src, dst *Query, fixed map[int]int) bool {
	h := make([]int, src.NVars())
	for v := range h {
		h[v] = -1
	}
	for v, w := range fixed {
		h[v] = w
	}
	steps := homMaxSteps
	var match func(ai int) bool
	match = func(ai int) bool {
		if ai == len(src.Atoms) {
			return true
		}
		sa := src.Atoms[ai]
		for _, da := range dst.Atoms {
			steps--
			if steps <= 0 {
				return false
			}
			if da.Name != sa.Name || len(da.Vars) != len(sa.Vars) {
				continue
			}
			var bound []int
			ok := true
			for i, v := range sa.Vars {
				w := da.Vars[i]
				switch h[v] {
				case -1:
					h[v] = w
					bound = append(bound, v)
				case w:
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			if ok && match(ai+1) {
				return true
			}
			for _, v := range bound {
				h[v] = -1
			}
		}
		return false
	}
	return match(0)
}
