package opt_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/opt"
)

// TestSignatureCollisionRate checks the signature filter against its
// analytic collision bound. Per trial, two known-distinct predicates
// Eq(x, 0) and Eq(x, 1) are fingerprinted on k random vectors drawn
// uniformly from [0, D): their signatures collide exactly when every
// vector avoids both constants, so the per-trial collision probability
// is ((D-2)/D)^k. Over T independent seeded trials the observed count
// must land within 3σ of the binomial expectation — a drifting PRNG,
// a broken vector distribution, or a signature evaluator that stops
// matching the gate semantics all trip it.
func TestSignatureCollisionRate(t *testing.T) {
	cases := []struct {
		name   string
		domain int64
		k      int
		trials int
	}{
		{"d8_k4", 8, 4, 1500},
		{"d16_k4", 16, 4, 1500},
		{"d8_k2", 8, 2, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			collisions := 0
			for trial := 0; trial < tc.trials; trial++ {
				c := boolcircuit.New()
				x := c.Input()
				g0 := c.Eq(x, c.Const(0))
				g1 := c.Eq(x, c.Const(1))
				c.MarkOutput(g0)
				c.MarkOutput(g1)
				sigs, err := opt.Signatures(context.Background(), c, tc.k, 0x517a7e+uint64(trial)*0x9e37, tc.domain)
				if err != nil {
					t.Fatal(err)
				}
				equal := true
				for v := 0; v < tc.k; v++ {
					if sigs[g0][v] != sigs[g1][v] {
						equal = false
						break
					}
				}
				if equal {
					collisions++
				}
			}
			d := float64(tc.domain)
			p := math.Pow((d-2)/d, float64(tc.k))
			mean := float64(tc.trials) * p
			sigma := math.Sqrt(float64(tc.trials) * p * (1 - p))
			if diff := math.Abs(float64(collisions) - mean); diff > 3*sigma {
				t.Errorf("observed %d collisions, analytic %.1f ± %.1f (3σ band ±%.1f)",
					collisions, mean, sigma, 3*sigma)
			}
			t.Logf("collisions %d / %d, analytic mean %.1f, σ %.1f", collisions, tc.trials, mean, sigma)
		})
	}
}

// TestSemanticCSENoFalseMerges runs ≥1k seeded random circuits through
// BoolSem at the default K=4 and cross-checks the optimized circuit
// against the original on random vectors: zero observed false merges.
// The default configuration adopts only prover-confirmed merges, so a
// single divergence means an unsound prover rule, not signature bad
// luck — which is exactly what this harness exists to catch.
func TestSemanticCSENoFalseMerges(t *testing.T) {
	const circuits = 1024
	totalMerges := 0
	for seed := int64(0); seed < circuits; seed++ {
		rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 7))
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		c := buildFuzzCircuit(data)
		o, st := mustBoolSem(t, c, opt.SemConfig{K: 4})
		totalMerges += st.Merges
		for trial := 0; trial < 4; trial++ {
			in := make([]int64, c.NumInputs())
			for i := range in {
				if rng.Intn(2) == 0 {
					in[i] = int64(rng.Uint64())
				} else {
					in[i] = int64(rng.Intn(7)) - 3
				}
			}
			want, err := c.Evaluate(in)
			if err != nil {
				t.Fatalf("seed %d original evaluate: %v", seed, err)
			}
			got, err := o.Evaluate(in)
			if err != nil {
				t.Fatalf("seed %d optimized evaluate: %v", seed, err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d trial %d output %d: original %d, semantic-CSE %d — FALSE MERGE (inputs %v)",
						seed, trial, i, want[i], got[i], in)
				}
			}
		}
	}
	// The harness must actually exercise merging, not vacuously pass.
	if totalMerges == 0 {
		t.Fatalf("no semantic merges across %d random circuits — harness lost its teeth", circuits)
	}
	t.Logf("%d circuits, %d semantic merges, zero false merges", circuits, totalMerges)
}
