// Metamorphic differential tier: equivalence-preserving rewrites of a
// full query — atom reordering, variable renaming, atom repetition —
// change neither its answers on any database nor its identity: every
// such variant canonicalizes to the base's fingerprint (repeated atoms
// are folded before anything is compiled), so the engine's cache,
// singleflight, batcher and store treat them as one query. The tier is
// kept non-vacuous from the other side by near misses — rewrites one
// atom away from an equivalence — which must get a fingerprint of their
// own and must disagree with the base on some database.
package circuitql

import (
	"context"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// metaN is the per-relation cardinality bound for metamorphic compiles
// and metaSeeds the number of databases each variant is checked on.
// Small on purpose: every variant is its own compile.
const metaN, metaSeeds = 3, 3

// Near misses are only evaluated on the RAM tier, so they can afford
// larger databases and more seeds to find a distinguishing one.
const (
	nearMissN     = 8
	nearMissSeeds = 256
)

// metamorphicCases: per query family, the base shape plus hardcoded
// rewrites. kind "alpha" (reorder / rename) and "dup" (repeated atom)
// variants are equivalent to the base and must share its fingerprint;
// "near" variants are not and must not.
var metamorphicCases = []struct {
	name     string
	base     string
	variants []struct{ kind, src string }
}{
	{
		name: "path2",
		base: "Q(A,B,C) :- R(A,B), S(B,C)",
		variants: []struct{ kind, src string }{
			{"alpha", "Q(A,B,C) :- S(B,C), R(A,B)"},
			{"alpha", "Q(X,Y,Z) :- R(X,Y), S(Y,Z)"},
			{"dup", "Q(A,B,C) :- R(A,B), R(A,B), S(B,C)"},
			{"near", "Q(A,B,C) :- R(A,B), R(B,A), S(B,C)"},
			{"near", "Q(A,B,C) :- R(A,B), S(A,B), S(B,C)"},
			{"near", "Q(A,B,C) :- R(A,B), S(C,B)"},
		},
	},
	{
		name: "path3",
		base: "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)",
		variants: []struct{ kind, src string }{
			{"alpha", "Q(A,B,C,D) :- T(C,D), R(A,B), S(B,C)"},
			{"alpha", "Q(W,X,Y,Z) :- R(W,X), S(X,Y), T(Y,Z)"},
			{"dup", "Q(A,B,C,D) :- R(A,B), S(B,C), S(B,C), T(C,D)"},
			{"near", "Q(A,B,C,D) :- R(A,B), S(B,C), S(C,B), T(C,D)"},
			{"near", "Q(A,B,C,D) :- R(A,B), S(B,C), T(D,C)"},
		},
	},
	{
		name: "triangle",
		base: "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
		variants: []struct{ kind, src string }{
			{"alpha", "Q(A,B,C) :- T(A,C), S(B,C), R(A,B)"},
			{"alpha", "Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)"},
			{"dup", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C), R(A,B)"},
			{"near", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C), R(B,A)"},
			{"near", "Q(A,B,C) :- R(A,B), S(B,C), T(C,A)"},
		},
	},
	{
		name: "cycle4",
		base: "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
		variants: []struct{ kind, src string }{
			{"alpha", "Q(A,B,C,D) :- U(D,A), T(C,D), S(B,C), R(A,B)"},
			{"alpha", "Q(W,X,Y,Z) :- R(W,X), S(X,Y), T(Y,Z), U(Z,W)"},
			{"dup", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A), T(C,D)"},
			{"near", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A), T(D,C)"},
			{"near", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(A,D)"},
		},
	},
}

// metaCanon canonicalizes one shape under uniform cardinalities.
func metaCanon(t *testing.T, src string) *query.Canonical {
	t.Helper()
	q := query.MustParse(src)
	canon, err := query.Canonicalize(q, UniformCardinalities(q, metaN))
	if err != nil {
		t.Fatalf("canonicalize %q: %v", src, err)
	}
	return canon
}

// metaCompile compiles one shape's canonical pair through the pipeline
// the engine runs.
func metaCompile(t *testing.T, src string) (*core.Compiled, *query.Canonical) {
	t.Helper()
	canon := metaCanon(t, src)
	cq, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return cq, canon
}

// metaEval evaluates a compiled canonical plan on db and renames its
// output columns to the base query's variable names — variable ids
// correspond positionally across every variant of one family (the
// parser numbers by first appearance), so the row sets compare
// directly against the base reference even for renamed variants.
func metaEval(t *testing.T, cq *core.Compiled, canon *query.Canonical, src string, baseQ *query.Query, db Database) *Relation {
	t.Helper()
	out, err := cq.EvaluateObliviousCtx(context.Background(), db)
	if err != nil {
		t.Fatalf("evaluate %q: %v", src, err)
	}
	m := make(map[string]string, baseQ.Free.Len())
	proj := make([]string, 0, baseQ.Free.Len())
	for _, v := range baseQ.Free.Vars() {
		m[canon.Query.VarNames[canon.VarMap[v]]] = baseQ.VarNames[v]
		proj = append(proj, baseQ.VarNames[v])
	}
	return out.Rename(m).Project(proj...)
}

func TestMetamorphicEquivalence(t *testing.T) {
	for _, tc := range metamorphicCases {
		t.Run(tc.name, func(t *testing.T) {
			baseCQ, baseCanon := metaCompile(t, tc.base)
			baseQ := query.MustParse(tc.base)
			type variant struct {
				kind, src string
				cq        *core.Compiled
				canon     *query.Canonical
			}
			var variants []variant
			var nearMisses []string
			for _, v := range tc.variants {
				if v.kind == "near" {
					if metaCanon(t, v.src).FP == baseCanon.FP {
						t.Errorf("near miss %q shares the base's fingerprint", v.src)
					}
					nearMisses = append(nearMisses, v.src)
					continue
				}
				cq, canon := metaCompile(t, v.src)
				if canon.FP != baseCanon.FP {
					t.Errorf("%s variant %q does not share the canonical fingerprint", v.kind, v.src)
				}
				if got, want := len(canon.Query.Atoms), len(baseCanon.Query.Atoms); got != want {
					t.Errorf("%s variant %q: %d canonical atoms, base has %d", v.kind, v.src, got, want)
				}
				if got, want := cq.Obliv.C.Size(), baseCQ.Obliv.C.Size(); got != want {
					t.Errorf("%s variant %q: %d word gates, base has %d", v.kind, v.src, got, want)
				}
				variants = append(variants, variant{v.kind, v.src, cq, canon})
			}

			for seed := int64(1); seed <= metaSeeds; seed++ {
				db := workload.Random(baseQ, seed, metaN)
				want, err := EvaluateRAM(context.Background(), baseQ, db)
				if err != nil {
					t.Fatalf("seed %d: RAM: %v", seed, err)
				}
				if d := relDiff(want, metaEval(t, baseCQ, baseCanon, tc.base, baseQ, db)); d != "" {
					t.Errorf("seed %d: base circuit diverges from RAM: %s", seed, d)
				}
				for _, v := range variants {
					got := metaEval(t, v.cq, v.canon, v.src, baseQ, db)
					if d := relDiff(want, got); d != "" {
						t.Errorf("seed %d: %s variant %q diverges: %s", seed, v.kind, v.src, d)
					}
				}
			}

			for _, src := range nearMisses {
				nearQ := query.MustParse(src)
				differs := false
				for seed := int64(1); seed <= nearMissSeeds && !differs; seed++ {
					db := workload.Random(baseQ, seed, nearMissN)
					want, err := EvaluateRAM(context.Background(), baseQ, db)
					if err != nil {
						t.Fatalf("seed %d: RAM: %v", seed, err)
					}
					got, err := EvaluateRAM(context.Background(), nearQ, db)
					if err != nil {
						t.Fatalf("seed %d: RAM %q: %v", seed, src, err)
					}
					differs = !got.Equal(want)
				}
				if !differs {
					t.Errorf("near miss %q agrees with the base on all %d seeds; it is not a near miss", src, nearMissSeeds)
				}
			}
		})
	}
}
