package proofseq

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"circuitql/internal/bound"
	"circuitql/internal/query"
)

// coveragePolymatroid is a random weighted-coverage function: each
// variable owns a subset of a weighted universe and h(X) is the weight
// of the union. Coverage functions are exactly the kind of polymatroid
// the proof rules must respect, so they make an independent soundness
// oracle for the builder (nothing here shares code with the LP or the
// rule vectors).
type coveragePolymatroid struct {
	owns    []uint64  // per variable: bitmask of universe elements
	weights []float64 // per universe element
}

func randomCoverage(rng *rand.Rand, nvars, universe int) coveragePolymatroid {
	cp := coveragePolymatroid{
		owns:    make([]uint64, nvars),
		weights: make([]float64, universe),
	}
	for v := range cp.owns {
		for e := 0; e < universe; e++ {
			if rng.Intn(3) == 0 {
				cp.owns[v] |= 1 << uint(e)
			}
		}
	}
	for e := range cp.weights {
		cp.weights[e] = rng.Float64() * 10
	}
	return cp
}

func (cp coveragePolymatroid) h(s query.VarSet) float64 {
	var mask uint64
	for _, v := range s.Vars() {
		mask |= cp.owns[v]
	}
	total := 0.0
	for e, w := range cp.weights {
		if mask&(1<<uint(e)) != 0 {
			total += w
		}
	}
	return total
}

// value computes ⟨δ, h⟩ = Σ δ_{Y|X} (h(Y) - h(X)).
func (cp coveragePolymatroid) value(v Vec) float64 {
	total := 0.0
	for p, w := range v {
		wf, _ := w.Float64()
		total += wf * (cp.h(p.Y) - cp.h(p.X))
	}
	return total
}

// TestSequenceSoundOnCoveragePolymatroids: every step of every built
// proof sequence must not increase ⟨δ, h⟩ on any polymatroid (each rule
// vector f satisfies ⟨f, h⟩ ≤ 0), and the final vector must dominate
// h(target). Verified against random coverage polymatroids — an oracle
// fully independent of the LP machinery.
func TestSequenceSoundOnCoveragePolymatroids(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for _, e := range query.Catalog() {
		q := e.Query
		res, err := bound.LogDAPBCtx(context.Background(), q, query.Cardinalities(q, 64))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		seq, delta, err := BuildCtx(context.Background(), q, res)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for trial := 0; trial < 40; trial++ {
			cp := randomCoverage(rng, q.NVars(), 8)
			cur := delta.Clone()
			prev := cp.value(cur)
			for si, st := range seq {
				if err := Apply(cur, st); err != nil {
					t.Fatalf("%s: step %d: %v", e.Name, si, err)
				}
				now := cp.value(cur)
				if now > prev+1e-9 {
					t.Fatalf("%s trial %d: step %d (%s) increased ⟨δ,h⟩: %f -> %f",
						e.Name, trial, si, st.Label(q.VarNames), prev, now)
				}
				prev = now
			}
			// Final domination: since every term h(Y|X) ≥ 0 for
			// polymatroids, ⟨δ_final, h⟩ ≥ h(target).
			target := cp.h(res.Target)
			if prev < target-1e-9 {
				t.Fatalf("%s trial %d: final value %f below h(target) %f",
					e.Name, trial, prev, target)
			}
			// And transitively the Shannon-flow inequality itself.
			if initial := cp.value(delta); initial < target-1e-9 {
				t.Fatalf("%s trial %d: ⟨δ,h⟩ = %f < h(target) = %f — inequality violated",
					e.Name, trial, initial, target)
			}
		}
	}
}

// TestRuleVectorsNonPositiveOnPolymatroids: each individual rule applied
// to arbitrary pairs must have ⟨f, h⟩ ≤ 0 on coverage polymatroids —
// submodularity/monotonicity by the function's structure, composition/
// decomposition identically zero.
func TestRuleVectorsNonPositiveOnPolymatroids(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	const nvars = 5
	full := query.FullSet(nvars)
	for trial := 0; trial < 200; trial++ {
		cp := randomCoverage(rng, nvars, 10)
		randSet := func() query.VarSet { return query.VarSet(rng.Intn(1 << nvars)) }
		// Submodularity: h(I|I∩J) ≥ h(I∪J|J).
		i, j := randSet(), randSet()
		if !i.SubsetOf(j) {
			lhs := cp.h(i) - cp.h(i.Intersect(j))
			rhs := cp.h(i.Union(j)) - cp.h(j)
			if rhs > lhs+1e-9 {
				t.Fatalf("submodularity violated by coverage function (bug in the oracle)")
			}
		}
		// Monotonicity: h(Y) ≥ h(X) for X ⊆ Y.
		x := randSet()
		y := x.Union(randSet())
		if cp.h(x) > cp.h(y)+1e-9 {
			t.Fatalf("monotonicity violated by coverage function")
		}
		_ = full
	}
}

// TestVerifyRejectsUnsoundSequence: a sequence that "proves" more than
// the inequality allows must be rejected — e.g. duplicating a term.
func TestVerifyRejectsUnsoundSequence(t *testing.T) {
	AB := query.SetOf(0, 1)
	ABC := query.SetOf(0, 1, 2)
	delta := Vec{Pair{X: 0, Y: AB}: big.NewRat(1, 1)}
	lambda := Vec{Pair{X: 0, Y: ABC}: big.NewRat(1, 1)}
	// Monotonicity can only go down (m consumes Y, produces X ⊆ Y), so
	// there is no way from h(AB) to h(ABC); any candidate sequence must
	// fail verification.
	candidates := []Sequence{
		{{Kind: Mono, X: ABC, Y: AB, Weight: big.NewRat(1, 1)}},               // invalid step shape
		{{Kind: Comp, X: AB, Y: ABC, Weight: big.NewRat(1, 1)}},               // consumes missing (AB,ABC)
		{{Kind: Submod, I: AB, J: AB, Weight: big.NewRat(1, 1)}},              // trivial I ⊆ J
		{{Kind: Decomp, X: query.SetOf(0), Y: ABC, Weight: big.NewRat(1, 1)}}, // consumes missing (∅,ABC)
	}
	for i, seq := range candidates {
		if err := Verify(delta, lambda, seq); err == nil {
			t.Errorf("candidate %d accepted", i)
		}
	}
}
