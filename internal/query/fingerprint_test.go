package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// permutePair builds a structurally identical variant of (q, dcs):
// variables are renamed and re-indexed by a random permutation, atoms
// and constraints are shuffled. Its fingerprint must match the original.
func permutePair(q *Query, dcs DCSet, rng *rand.Rand) (*Query, DCSet) {
	n := q.NVars()
	perm := rng.Perm(n)
	out := &Query{VarNames: make([]string, n), Free: mapSet(q.Free, perm)}
	for v := 0; v < n; v++ {
		// Fresh names in permuted slots: alpha-renaming plus re-indexing.
		out.VarNames[perm[v]] = "W" + q.VarNames[v]
	}
	for _, a := range q.Atoms {
		vars := make([]int, len(a.Vars))
		for i, v := range a.Vars {
			vars[i] = perm[v]
		}
		out.Atoms = append(out.Atoms, Atom{Name: a.Name, Vars: vars})
	}
	rng.Shuffle(len(out.Atoms), func(i, j int) {
		out.Atoms[i], out.Atoms[j] = out.Atoms[j], out.Atoms[i]
	})
	mapped := make(DCSet, len(dcs))
	for i, dc := range dcs {
		mapped[i] = DegreeConstraint{X: mapSet(dc.X, perm), Y: mapSet(dc.Y, perm), N: dc.N}
	}
	rng.Shuffle(len(mapped), func(i, j int) { mapped[i], mapped[j] = mapped[j], mapped[i] })
	return out, mapped
}

// repeatAtoms returns q with k extra copies of randomly chosen atoms
// inserted at random positions.
func repeatAtoms(q *Query, k int, rng *rand.Rand) *Query {
	out := *q
	out.Atoms = slices.Clone(q.Atoms)
	for ; k > 0; k-- {
		a := out.Atoms[rng.Intn(len(out.Atoms))]
		out.Atoms = slices.Insert(out.Atoms, rng.Intn(len(out.Atoms)+1), a)
	}
	return &out
}

func TestFingerprintInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, e := range Catalog() {
		dcs := Cardinalities(e.Query, 64)
		// A non-uniform constraint set exercises DC-aware canonization.
		if len(dcs) > 1 {
			dcs[0].N = 16
		}
		c, err := Canonicalize(e.Query, dcs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !c.Complete {
			t.Fatalf("%s: canonical search truncated", e.Name)
		}
		for trial := 0; trial < 20; trial++ {
			q2, dcs2 := permutePair(e.Query, dcs, rng)
			c2, err := Canonicalize(q2, dcs2)
			if err != nil {
				t.Fatalf("%s trial %d: %v", e.Name, trial, err)
			}
			if c2.FP != c.FP {
				t.Fatalf("%s trial %d: permuted variant changed fingerprint\n orig %s\n perm %s",
					e.Name, trial, e.Query, q2)
			}
		}
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	seen := map[Fingerprint]string{}
	for _, e := range Catalog() {
		fp, err := QueryFingerprint(e.Query, Cardinalities(e.Query, 64))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("catalog queries %s and %s share a fingerprint", prev, e.Name)
		}
		seen[fp] = e.Name
	}

	// The constraint set is part of the key: the same query under a
	// different bound (or an extra degree constraint) is a new plan.
	q := Triangle()
	fp64, _ := QueryFingerprint(q, Cardinalities(q, 64))
	fp128, _ := QueryFingerprint(q, Cardinalities(q, 128))
	if fp64 == fp128 {
		t.Fatal("cardinality bound not reflected in fingerprint")
	}
	withDeg, _ := ParseDC(q, "R <= 64; S <= 64; T <= 64; R|A <= 4")
	fpDeg, _ := QueryFingerprint(q, withDeg)
	if fpDeg == fp64 {
		t.Fatal("degree constraint not reflected in fingerprint")
	}
	// The DC set is hashed as given: a second, looser bound on a variable
	// set that already has one is implied by the first, yet it is a new
	// pair (load generators mint fresh fingerprints this way).
	loose := append(Cardinalities(q, 64), DegreeConstraint{Y: q.Atoms[0].VarSet(), N: 100})
	fpLoose, err := QueryFingerprint(q, loose)
	if err != nil {
		t.Fatal(err)
	}
	if fpLoose == fp64 {
		t.Fatal("loose extra cardinality constraint folded out of the fingerprint")
	}

	// Relation names are part of the structure.
	q2 := MustParse("Q(A,B,C) :- R(A,B), S(B,C), U(A,C)")
	fpU, _ := QueryFingerprint(q2, Cardinalities(q2, 64))
	if fpU == fp64 {
		t.Fatal("relation name not reflected in fingerprint")
	}

	// Free variables are part of the structure.
	full := Path2()
	proj := Path2Projected()
	fpFull, _ := QueryFingerprint(full, Cardinalities(full, 64))
	fpProj, _ := QueryFingerprint(proj, Cardinalities(proj, 64))
	if fpFull == fpProj {
		t.Fatal("free-variable set not reflected in fingerprint")
	}

	// Atom folding is scoped to full queries: a projected query keeps a
	// repeated atom, and with it a fingerprint of its own.
	projDup := MustParse("Q(A,C) :- R(A,B), R(A,B), S(B,C)")
	cDup, err := Canonicalize(projDup, Cardinalities(projDup, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(cDup.Query.Atoms) != 3 || cDup.FP == fpProj {
		t.Fatalf("non-full query folded to %s", cDup.Query)
	}
}

// TestCanonicalizeWellFormed checks the canonical form is itself a valid
// (query, DC) pair, that VarMap is the advertised bijection, and that
// canonicalization is idempotent.
func TestCanonicalizeWellFormed(t *testing.T) {
	for _, e := range Catalog() {
		dcs := Cardinalities(e.Query, 32)
		c, err := Canonicalize(e.Query, dcs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if err := c.Query.Validate(); err != nil {
			t.Fatalf("%s: canonical query invalid: %v", e.Name, err)
		}
		if err := c.DCs.Validate(c.Query); err != nil {
			t.Fatalf("%s: canonical DCs invalid: %v", e.Name, err)
		}
		seen := make([]bool, len(c.VarMap))
		for _, cv := range c.VarMap {
			if cv < 0 || cv >= len(seen) || seen[cv] {
				t.Fatalf("%s: VarMap %v is not a permutation", e.Name, c.VarMap)
			}
			seen[cv] = true
		}
		if c.Query.Free != mapSet(e.Query.Free, c.VarMap) {
			t.Fatalf("%s: free variables not carried by VarMap", e.Name)
		}
		again, err := Canonicalize(c.Query, c.DCs)
		if err != nil {
			t.Fatalf("%s: recanonicalize: %v", e.Name, err)
		}
		if again.FP != c.FP {
			t.Fatalf("%s: canonicalization not idempotent", e.Name)
		}
	}
}

// TestFingerprintSymmetricSelfJoin exercises a query with a nontrivial
// automorphism group (same relation name on every atom), where color
// refinement alone cannot make the partition discrete and the
// individualization search must resolve ties consistently.
func TestFingerprintSymmetricSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := MustParse("Q(A,B,C) :- R(A,B), R(B,C), R(C,A)")
	dcs := Cardinalities(q, 64)
	c, err := Canonicalize(q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Complete {
		t.Fatal("canonical search truncated on a 3-variable query")
	}
	for trial := 0; trial < 50; trial++ {
		q2, dcs2 := permutePair(q, dcs, rng)
		c2, err := Canonicalize(q2, dcs2)
		if err != nil {
			t.Fatal(err)
		}
		if c2.FP != c.FP {
			t.Fatalf("trial %d: symmetric self-join fingerprint not invariant (%s)", trial, q2)
		}
	}
	// Orienting one atom differently breaks the isomorphism.
	q3 := MustParse("Q(A,B,C) :- R(A,B), R(B,C), R(A,C)")
	fp3, err := QueryFingerprint(q3, Cardinalities(q3, 64))
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == c.FP {
		t.Fatal("differently oriented self-join collides")
	}
}

// TestFoldRepeatedAtoms pins the fold itself: a query with nothing to
// fold comes back as is without allocating (every served request pays
// this path), and a repeat is dropped wherever it sits, first
// occurrences kept in order.
func TestFoldRepeatedAtoms(t *testing.T) {
	q := MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if foldRepeatedAtoms(q) != q {
		t.Fatal("query without repeats was copied")
	}
	if n := testing.AllocsPerRun(100, func() { foldRepeatedAtoms(q) }); n != 0 {
		t.Fatalf("no-repeat path allocates %v times", n)
	}
	for _, text := range []string{
		"Q(A,B,C) :- R(A,B), R(A,B), S(B,C), T(A,C)",
		"Q(A,B,C) :- R(A,B), S(B,C), R(A,B), T(A,C), S(B,C)",
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C), T(A,C), T(A,C)",
	} {
		in := MustParse(text)
		before := len(in.Atoms)
		got := foldRepeatedAtoms(in)
		if got.String() != q.String() {
			t.Errorf("fold(%s) = %s, want %s", text, got, q)
		}
		if len(in.Atoms) != before {
			t.Errorf("fold(%s) changed its input", text)
		}
	}
	nonFull := MustParse("Q(A) :- R(A,B), R(A,B)")
	if foldRepeatedAtoms(nonFull) != nonFull {
		t.Fatal("non-full query was folded")
	}
}

// randomFullCQ draws a valid full CQ over 2-4 variables and 1-4 atoms
// from a fixed relation vocabulary (so arities stay consistent).
func randomFullCQ(rng *rand.Rand) *Query {
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 2}, {"T", 3}, {"U", 1}}
	for {
		n := 2 + rng.Intn(3)
		q := &Query{Free: FullSet(n)}
		for v := 0; v < n; v++ {
			q.VarNames = append(q.VarNames, fmt.Sprintf("V%d", v))
		}
		for m := 1 + rng.Intn(4); m > 0; m-- {
			rel := rels[rng.Intn(len(rels))]
			vars := make([]int, rel.arity)
			for i := range vars {
				vars[i] = rng.Intn(n)
			}
			q.Atoms = append(q.Atoms, Atom{Name: rel.name, Vars: vars})
		}
		if q.Validate() == nil {
			return q
		}
	}
}

// mutateOnePosition returns q with one variable position of one atom
// pointed at a different variable, or nil when that leaves a variable
// uncovered.
func mutateOnePosition(q *Query, rng *rand.Rand) *Query {
	out := *q
	out.Atoms = make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		out.Atoms[i] = Atom{Name: a.Name, Vars: slices.Clone(a.Vars)}
	}
	vars := out.Atoms[rng.Intn(len(out.Atoms))].Vars
	pos := rng.Intn(len(vars))
	vars[pos] = (vars[pos] + 1 + rng.Intn(q.NVars()-1)) % q.NVars()
	if out.Validate() != nil {
		return nil
	}
	return &out
}

// equivalentUnderSomeHead reports whether any bijection between the two
// full queries' variables makes them Equivalent.
func equivalentUnderSomeHead(a, b *Query) bool {
	n := a.NVars()
	if n != b.NVars() {
		return false
	}
	perm := make([]int, n)
	used := make([]bool, n)
	var try func(v int) bool
	try = func(v int) bool {
		if v == n {
			pairs := make([][2]int, n)
			for va, vb := range perm {
				pairs[va] = [2]int{va, vb}
			}
			return Equivalent(a, b, pairs)
		}
		for w := 0; w < n; w++ {
			if !used[w] {
				used[w], perm[v] = true, w
				if try(v + 1) {
					return true
				}
				used[w] = false
			}
		}
		return false
	}
	return try(0)
}

// TestFingerprintEqualityIsEquivalence is the identity claim of the
// package comment, checked against the homomorphism oracle: over random
// full CQs, their reordered / α-renamed / atom-repeating variants and
// one-position mutants of those, two queries share a fingerprint exactly
// when they are Equivalent — under the head correspondence the two
// VarMaps give when the fingerprints agree, under no head bijection at
// all when they differ.
func TestFingerprintEqualityIsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var equal, folded, unequal int
	for trial := 0; trial < 300; trial++ {
		base := randomFullCQ(rng)
		renamed, _ := permutePair(base, nil, rng)
		repeated, _ := permutePair(repeatAtoms(base, 1+rng.Intn(3), rng), nil, rng)
		family := []*Query{base, renamed, repeated}
		for _, q := range []*Query{base, repeated} {
			if m := mutateOnePosition(q, rng); m != nil {
				family = append(family, m)
			}
		}
		canons := make([]*Canonical, len(family))
		for i, q := range family {
			c, err := Canonicalize(q, Cardinalities(q, 16))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !c.Complete {
				t.Fatalf("%s: canonical search truncated", q)
			}
			canons[i] = c
		}
		for i, a := range family {
			for j := i + 1; j < len(family); j++ {
				b := family[j]
				if canons[i].FP != canons[j].FP {
					unequal++
					if equivalentUnderSomeHead(a, b) {
						t.Fatalf("equivalent queries got different fingerprints:\n %s\n %s", a, b)
					}
					continue
				}
				equal++
				if len(a.Atoms) != len(b.Atoms) {
					folded++
				}
				pairs := make([][2]int, a.NVars())
				for va, cv := range canons[i].VarMap {
					pairs[va] = [2]int{va, slices.Index(canons[j].VarMap, cv)}
				}
				if !Equivalent(a, b, pairs) {
					t.Fatalf("inequivalent queries share fingerprint %s:\n %s\n %s",
						canons[i].FP.Short(), a, b)
				}
			}
		}
	}
	if equal == 0 || folded == 0 || unequal == 0 {
		t.Fatalf("vacuous: %d equal pairs (%d across atom counts), %d unequal", equal, folded, unequal)
	}
	t.Logf("%d equal pairs (%d across atom counts), %d unequal", equal, folded, unequal)
}

// FuzzFingerprint reuses the query parser's corpus shape: any string the
// parser accepts must fingerprint deterministically, and a random
// structure-preserving permutation — plus, for a full query, repeating
// some of its atoms — must not change the fingerprint whenever the
// canonical search completes on both sides.
func FuzzFingerprint(f *testing.F) {
	seeds := []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
		"Q() :- R(A,B)",
		"Q(A) :- R(A,A)",
		"Q(A,B) :- R(A,B), R(B,A).",
		"Q(X1, Y_2) :- Edge(X1, Y_2)",
		"Q(A,B,C) :- R(A,B), R(B,C), R(C,A)",
		"Q(A,B,C,D) :- R(A,B,C), S(A,B,D), T(A,C,D), U(B,C,D)",
	}
	for _, s := range seeds {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, src string, permSeed int64) {
		if len(src) > 4096 {
			return
		}
		q, err := Parse(src)
		if err != nil {
			return
		}
		dcs := Cardinalities(q, 16)
		c1, err := Canonicalize(q, dcs)
		if err != nil {
			t.Fatalf("valid query failed to canonicalize: %v (src %q)", err, src)
		}
		c1b, err := Canonicalize(q, dcs)
		if err != nil || c1b.FP != c1.FP {
			t.Fatalf("fingerprint not deterministic (src %q)", src)
		}
		rng := rand.New(rand.NewSource(permSeed))
		q2, dcs2 := permutePair(q, dcs, rng)
		if q2.IsFull() {
			q2 = repeatAtoms(q2, rng.Intn(3), rng)
		}
		c2, err := Canonicalize(q2, dcs2)
		if err != nil {
			t.Fatalf("permuted variant failed to canonicalize: %v (src %q)", err, src)
		}
		if c1.Complete && c2.Complete && c1.FP != c2.FP {
			t.Fatalf("fingerprint not invariant under permutation and atom repetition (src %q, variant %q)", src, q2)
		}
	})
}
