package bitblast

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/expr"
	"circuitql/internal/opcircuits"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// crossCheck blasts a word circuit and verifies bit-level evaluation
// against the word evaluator on the given input vectors.
func crossCheck(t *testing.T, c *boolcircuit.Circuit, width int, inputVectors [][]int64) *Result {
	t.Helper()
	res, err := BlastCtx(context.Background(), c, width)
	if err != nil {
		t.Fatal(err)
	}
	// The bit circuit is genuinely Boolean: only 0/1-safe ops.
	for id := 0; id < res.C.Size(); id++ {
		g := res.C.GateAt(id)
		switch g.Op {
		case boolcircuit.OpInput, boolcircuit.OpAnd, boolcircuit.OpOr, boolcircuit.OpXor:
		case boolcircuit.OpConst:
			if g.K != 0 && g.K != 1 {
				t.Fatalf("non-boolean constant %d in blasted circuit", g.K)
			}
		default:
			t.Fatalf("non-boolean op %v in blasted circuit", g.Op)
		}
	}
	for vi, inputs := range inputVectors {
		want, err := c.EvaluateCtx(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		bits, err := res.C.EvaluateCtx(context.Background(), PackWords(inputs, width))
		if err != nil {
			t.Fatal(err)
		}
		got := UnpackWords(bits, width)
		if len(got) != len(want) {
			t.Fatalf("vector %d: %d outputs, want %d", vi, len(got), len(want))
		}
		for i := range want {
			w := truncate(want[i], width)
			if got[i] != w {
				t.Fatalf("vector %d output %d: bit-level %d ≠ word-level %d (raw %d)",
					vi, i, got[i], w, want[i])
			}
		}
	}
	return res
}

// truncate reduces a word value to the width-bit two's complement range.
func truncate(v int64, width int) int64 {
	if width >= 64 {
		return v
	}
	u := uint64(v) & (1<<uint(width) - 1)
	if u&(1<<uint(width-1)) != 0 {
		u |= ^uint64(0) << uint(width)
	}
	return int64(u)
}

func TestBlastArithmetic(t *testing.T) {
	c := boolcircuit.New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Add(a, b))
	c.MarkOutput(c.Sub(a, b))
	c.MarkOutput(c.Mul(a, b))
	c.MarkOutput(c.Eq(a, b))
	c.MarkOutput(c.Lt(a, b))
	c.MarkOutput(c.And(a, b))
	c.MarkOutput(c.Or(a, b))
	c.MarkOutput(c.Xor(a, b))
	c.MarkOutput(c.Not(a))
	c.MarkOutput(c.Mux(c.Lt(a, b), a, b))

	rng := rand.New(rand.NewSource(701))
	var vectors [][]int64
	for i := 0; i < 30; i++ {
		vectors = append(vectors, []int64{
			int64(rng.Intn(4000) - 2000), int64(rng.Intn(4000) - 2000)})
	}
	vectors = append(vectors,
		[]int64{0, 0}, []int64{-1, 1}, []int64{2047, -2048}, []int64{-2048, -2048})
	crossCheck(t, c, 16, vectors)
	crossCheck(t, c, 64, vectors)
}

func TestBlastMod(t *testing.T) {
	c := boolcircuit.New()
	a, m := c.Input(), c.Input()
	c.MarkOutput(c.ModC(a, m))
	var vectors [][]int64
	for _, x := range []int64{-9, -2, -1, 0, 1, 2, 7, 13} {
		for _, mod := range []int64{0, 1, 2, 3, 8} {
			vectors = append(vectors, []int64{x, mod})
		}
	}
	crossCheck(t, c, 16, vectors)
}

// TestBlastSortCircuit: an 8-slot sorting circuit bit-blasts correctly.
func TestBlastSortCircuit(t *testing.T) {
	c := boolcircuit.New()
	rel := opcircuits.NewInput(c, []string{"A"}, 8)
	out := opcircuits.SortBy(c, rel, []string{"A"})
	opcircuits.MarkOutputs(c, out)

	rng := rand.New(rand.NewSource(703))
	var vectors [][]int64
	for v := 0; v < 4; v++ {
		r := relation.New("A")
		for r.Len() < 5 {
			r.Insert(int64(rng.Intn(40) - 20))
		}
		packed, err := opcircuits.Pack(r, []string{"A"}, 8)
		if err != nil {
			t.Fatal(err)
		}
		vectors = append(vectors, packed)
	}
	res := crossCheck(t, c, 16, vectors)
	t.Logf("8-slot sort: %d word gates -> %d bit gates (width 16), depth %d -> %d",
		c.Size(), res.C.Size(), c.Depth(), res.C.Depth())
}

// TestBlastPKJoinCircuit: the Figure 3 primary-key join as a literal
// Boolean circuit, checked against the word evaluator. Width must be 64
// because the join circuit uses the sentinel constant.
func TestBlastPKJoinCircuit(t *testing.T) {
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
	res := crossCheck(t, c, 64, [][]int64{append(pr, ps...)})
	t.Logf("pk join: %d word gates -> %d bit gates (width 64)", c.Size(), res.C.Size())

	// Decode the bit-level output and check the relation itself.
	bits, err := res.C.EvaluateCtx(context.Background(), PackWords(append(pr, ps...), 64))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := opcircuits.Decode(out.Schema, UnpackWords(bits, 64))
	if err != nil {
		t.Fatal(err)
	}
	want := rr.NaturalJoin(ss)
	if !rel.Equal(want) {
		t.Fatalf("bit-level join = %v, want %v", rel, want)
	}
}

// TestBlastSelectWithExpressions: a selection with arithmetic predicate
// (exercises Mod-by-2 parity, comparisons, logical ops).
func TestBlastSelectWithExpressions(t *testing.T) {
	c := boolcircuit.New()
	rel := opcircuits.NewInput(c, []string{"A", "B"}, 4)
	out := opcircuits.Select(c, rel,
		expr.And(expr.IsOdd("A"), expr.Ge(expr.Attr("B"), expr.Const(3))))
	opcircuits.MarkOutputs(c, out)

	r := relation.FromTuples([]string{"A", "B"},
		relation.Tuple{1, 5}, relation.Tuple{2, 5}, relation.Tuple{3, 1}, relation.Tuple{5, 3})
	packed, err := opcircuits.Pack(r, []string{"A", "B"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := crossCheck(t, c, 16, [][]int64{packed})
	bits, err := res.C.EvaluateCtx(context.Background(), PackWords(packed, 16))
	if err != nil {
		t.Fatal(err)
	}
	got, err := opcircuits.Decode(out.Schema, UnpackWords(bits, 16))
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromTuples([]string{"A", "B"}, relation.Tuple{1, 5}, relation.Tuple{5, 3})
	if !got.Equal(want) {
		t.Fatalf("bit-level select = %v, want %v", got, want)
	}
}

func TestBlastRejectsBadWidth(t *testing.T) {
	c := boolcircuit.New()
	c.Input()
	if _, err := BlastCtx(context.Background(), c, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := BlastCtx(context.Background(), c, 65); err == nil {
		t.Fatal("width 65 accepted")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 1000, -4096, 1 << 40}
	bits := PackWords(vals, 64)
	got := UnpackWords(bits, 64)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("round trip %d: %d != %d", i, got[i], vals[i])
		}
	}
	// Narrow width sign extension.
	nb := PackWords([]int64{-3}, 8)
	if v := UnpackWords(nb, 8)[0]; v != -3 {
		t.Fatalf("8-bit round trip = %d", v)
	}
}

// TestBlastTriangleEndToEnd: the full compiled triangle query as a
// literal Boolean circuit — Theorem 4 in the paper's strict bit model.
func TestBlastTriangleEndToEnd(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 3)
	cres, err := panda.CompileFCQCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	obl, err := core.CompileObliviousCtx(context.Background(), cres.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BlastCtx(context.Background(), obl.C, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("triangle N≤3: %d word gates -> %d bit gates, depth %d -> %d",
		obl.C.Size(), res.C.Size(), obl.C.Depth(), res.C.Depth())

	db := query.Database{
		"R": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 2}, relation.Tuple{4, 5}),
		"S": relation.FromTuples([]string{"x", "y"}, relation.Tuple{2, 3}, relation.Tuple{5, 6}),
		"T": relation.FromTuples([]string{"x", "y"}, relation.Tuple{1, 3}, relation.Tuple{9, 9}),
	}
	pdb, err := panda.PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []int64
	for _, spec := range obl.Inputs {
		packed, err := opcircuits.Pack(pdb[spec.Name], spec.Schema, spec.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, packed...)
	}
	bits, err := res.C.EvaluateCtx(context.Background(), PackWords(inputs, 64))
	if err != nil {
		t.Fatal(err)
	}
	outSpec := obl.Outputs[0]
	rel, err := opcircuits.Decode(outSpec.Schema, UnpackWords(bits, 64))
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(want) {
		t.Fatalf("bit-level Q(D) = %v, want %v", rel, want)
	}
}
