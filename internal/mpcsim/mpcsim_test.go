package mpcsim

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/bitblast"
	"circuitql/internal/boolcircuit"
	"circuitql/internal/opcircuits"
	"circuitql/internal/relation"
)

// runBlasted bit-blasts a word circuit and executes it under 2PC,
// returning the reconstructed word outputs.
func runBlasted(t *testing.T, c *boolcircuit.Circuit, width int, inputs []int64, seed int64) ([]int64, Transcript) {
	t.Helper()
	res, err := bitblast.BlastCtx(context.Background(), c, width)
	if err != nil {
		t.Fatal(err)
	}
	bits := bitblast.PackWords(inputs, width)
	owner := make([]int, len(bits))
	for i := range owner {
		owner[i] = i % 2 // interleaved ownership
	}
	out, tr, err := Run(res.C, bits, owner, seed)
	if err != nil {
		t.Fatal(err)
	}
	return bitblast.UnpackWords(out, width), tr
}

func TestGMWMatchesPlainEvaluation(t *testing.T) {
	c := boolcircuit.New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Add(a, b))
	c.MarkOutput(c.Lt(a, b))
	c.MarkOutput(c.Mux(c.Eq(a, b), a, c.Mul(a, b)))

	rng := rand.New(rand.NewSource(801))
	for iter := 0; iter < 20; iter++ {
		inputs := []int64{int64(rng.Intn(200) - 100), int64(rng.Intn(200) - 100)}
		want, err := c.EvaluateCtx(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runBlasted(t, c, 16, inputs, int64(iter))
		for i := range want {
			w := want[i]
			// 16-bit truncation of the plain result.
			w = int64(int16(w))
			if got[i] != w {
				t.Fatalf("iter %d output %d: 2PC %d ≠ plain %d", iter, i, got[i], w)
			}
		}
	}
}

// TestGMWJoinQuery: a private primary-key join under simulated 2PC —
// party 0 holds R, party 1 holds S (per-relation ownership).
func TestGMWJoinQuery(t *testing.T) {
	c := boolcircuit.New()
	r := opcircuits.NewInput(c, []string{"A", "B"}, 3)
	s := opcircuits.NewInput(c, []string{"B", "C"}, 2)
	out := opcircuits.PKJoin(c, r, s)
	opcircuits.MarkOutputs(c, out)

	rr := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 1}, relation.Tuple{1, 2}, relation.Tuple{2, 1})
	ss := relation.FromTuples([]string{"B", "C"},
		relation.Tuple{1, 100}, relation.Tuple{3, 100})
	pr, err := opcircuits.Pack(rr, []string{"A", "B"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := opcircuits.Pack(ss, []string{"B", "C"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := append(pr, ps...)

	res, err := bitblast.BlastCtx(context.Background(), c, 64)
	if err != nil {
		t.Fatal(err)
	}
	bits := bitblast.PackWords(inputs, 64)
	owner := make([]int, len(bits))
	for i := range owner {
		if i >= len(pr)*64 {
			owner[i] = 1 // party 1 owns S's bits
		}
	}
	outBits, tr, err := Run(res.C, bits, owner, 99)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := opcircuits.Decode(out.Schema, bitblast.UnpackWords(outBits, 64))
	if err != nil {
		t.Fatal(err)
	}
	want := rr.NaturalJoin(ss)
	if !rel.Equal(want) {
		t.Fatalf("2PC join = %v, want %v", rel, want)
	}
	if tr.ANDGates == 0 || tr.Rounds == 0 {
		t.Fatalf("transcript empty: %+v", tr)
	}
	t.Logf("2PC pk-join: %d AND triples, %d rounds, %d bits exchanged",
		tr.ANDGates, tr.Rounds, tr.BitsSent)
}

// TestTranscriptShapeIsOblivious: the number of openings, rounds, and
// AND gates is identical for every input — the access-pattern property
// circuits guarantee.
func TestTranscriptShapeIsOblivious(t *testing.T) {
	c := boolcircuit.New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Mux(c.Lt(a, b), c.Mul(a, b), c.Add(a, b)))
	res, err := bitblast.BlastCtx(context.Background(), c, 16)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, res.C.NumInputs())
	for i := range owner {
		owner[i] = i % 2
	}
	var ref Transcript
	rng := rand.New(rand.NewSource(803))
	for iter := 0; iter < 10; iter++ {
		inputs := bitblast.PackWords([]int64{int64(rng.Intn(1000)), int64(rng.Intn(1000))}, 16)
		_, tr, err := Run(res.C, inputs, owner, 7) // same dealer seed
		if err != nil {
			t.Fatal(err)
		}
		if iter == 0 {
			ref = tr
			continue
		}
		if tr.ANDGates != ref.ANDGates || tr.Rounds != ref.Rounds ||
			tr.BitsSent != ref.BitsSent || len(tr.Openings) != len(ref.Openings) {
			t.Fatalf("transcript shape varies with input: %+v vs %+v", tr, ref)
		}
	}
}

// TestOpeningsAreMasked: with fresh dealer randomness, the opened values
// for fixed inputs vary — each opening is one-time-padded by the triple.
func TestOpeningsAreMasked(t *testing.T) {
	c := boolcircuit.New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.And(a, b))
	owner := []int{0, 1}
	same := true
	var first []byte
	for seed := int64(0); seed < 8; seed++ {
		_, tr, err := Run(c, []int64{1, 1}, owner, seed)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]byte(nil), tr.Openings...)
			continue
		}
		for i := range tr.Openings {
			if tr.Openings[i] != first[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("openings identical across dealer seeds — masking broken")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	c := boolcircuit.New()
	a := c.Input()
	c.MarkOutput(a)
	if _, _, err := Run(c, nil, nil, 1); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if _, _, err := Run(c, []int64{2}, []int{0}, 1); err == nil {
		t.Fatal("non-bit input accepted")
	}
	// Word-level gate (not blasted) rejected.
	c2 := boolcircuit.New()
	x, y := c2.Input(), c2.Input()
	c2.MarkOutput(c2.Add(x, y))
	if _, _, err := Run(c2, []int64{0, 1}, []int{0, 1}, 1); err == nil {
		t.Fatal("word-level gate accepted")
	}
}
