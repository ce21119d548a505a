package opt_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/guard"
	"circuitql/internal/opt"
	"circuitql/internal/query"
	"circuitql/internal/testutil"
)

func mustBool(t testing.TB, c *boolcircuit.Circuit) *boolcircuit.Circuit {
	t.Helper()
	o, err := opt.BoolCtx(context.Background(), c)
	if err != nil {
		t.Fatalf("opt.BoolCtx: %v", err)
	}
	return o
}

// assertMatchesReference holds the one-pass optimizer against the old
// rebuild-until-no-shrink loop on c: the same circuit gate for gate
// (hence the same Size, Depth, input order and output wires) and the
// same outputs as c itself on random vectors.
//
// The one exception is a circuit the old loop gave up on: it judged its
// first rebuild before sweeping the gates that rebuild had left dead, so
// a rebuild that only wins after the sweep was discarded and c returned.
// The one-pass version judges the swept circuit; there it may be
// smaller or shallower than the reference, never the other way round.
func assertMatchesReference(t *testing.T, c *boolcircuit.Circuit, rng *rand.Rand) {
	t.Helper()
	got := mustBool(t, c)
	ref := opt.BoolMultiPassRef(c)

	if ref == c && got != c {
		if got.Size() > ref.Size() || got.Depth() > ref.Depth() {
			t.Fatalf("reference kept the input (%d gates, depth %d) but one pass returned %d gates, depth %d",
				ref.Size(), ref.Depth(), got.Size(), got.Depth())
		}
	} else {
		if got.Size() != ref.Size() || got.Depth() != ref.Depth() {
			t.Fatalf("one pass: %d gates, depth %d; reference: %d gates, depth %d",
				got.Size(), got.Depth(), ref.Size(), ref.Depth())
		}
		for i := 0; i < ref.Size(); i++ {
			if got.GateAt(i) != ref.GateAt(i) || got.DepthOf(i) != ref.DepthOf(i) {
				t.Fatalf("gate %d: one pass %+v at depth %d, reference %+v at depth %d",
					i, got.GateAt(i), got.DepthOf(i), ref.GateAt(i), ref.DepthOf(i))
			}
		}
		gotOut, refOut := got.Outputs(), ref.Outputs()
		for i := range refOut {
			if gotOut[i] != refOut[i] {
				t.Fatalf("output %d: wire %d, reference %d", i, gotOut[i], refOut[i])
			}
		}
	}
	gotIn, refIn := got.InputIDs(), ref.InputIDs()
	if len(gotIn) != len(refIn) || len(got.Outputs()) != len(ref.Outputs()) {
		t.Fatalf("interface: %d inputs, %d outputs; reference %d, %d",
			len(gotIn), len(got.Outputs()), len(refIn), len(ref.Outputs()))
	}
	for i := range refIn {
		if gotIn[i] != refIn[i] {
			t.Fatalf("input %d: wire %d, reference %d", i, gotIn[i], refIn[i])
		}
	}

	in := make([]int64, c.NumInputs())
	for trial := 0; trial < 4; trial++ {
		for i := range in {
			if rng.Intn(2) == 0 {
				in[i] = int64(rng.Uint64())
			} else {
				in[i] = int64(rng.Intn(7)) - 3
			}
		}
		want, err := c.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for name, o := range map[string]*boolcircuit.Circuit{"one pass": got, "reference": ref} {
			out, err := o.Evaluate(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("%s, trial %d, output %d: %d, original %d", name, trial, i, out[i], want[i])
				}
			}
		}
	}
}

// TestBoolMatchesMultiPassReference runs the comparison on the raw
// lowering of every affordable full catalog query, under the uniform
// cardinality bound and, for the cheapest three, under constraints
// derived from seeded instances. (The FuzzOptimize corpus gets the same
// comparison inside the fuzz target.) bowtie is out of reach — its
// PANDA-C compile alone takes minutes — and star3 runs at bound 3 as in
// the differential harness.
func TestBoolMatchesMultiPassReference(t *testing.T) {
	ctx := context.Background()
	derived := map[string]bool{"triangle": true, "path2": true, "path3": true}
	for _, ent := range query.Catalog() {
		q, name := ent.Query, ent.Name
		if !q.IsFull() || name == "bowtie" {
			continue
		}
		n := 5
		if name == "star3" {
			n = 3
		}
		dcSets := map[string]query.DCSet{"uniform": query.Cardinalities(q, float64(n))}
		if derived[name] {
			for seed := int64(1); seed <= 3; seed++ {
				dcs, err := query.DeriveDC(q, testutil.RandomDB(q, seed, n))
				if err != nil {
					t.Fatalf("%s seed %d: derive: %v", name, seed, err)
				}
				dcSets["derived/"+string(rune('0'+seed))] = dcs
			}
		}
		for label, dcs := range dcSets {
			t.Run(name+"/"+label, func(t *testing.T) {
				raw, err := core.CompileQueryOptsCtx(ctx, q, dcs, core.CompileOptions{NoOpt: true})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				assertMatchesReference(t, raw.Obliv.C, rand.New(rand.NewSource(int64(raw.Obliv.C.Size()))))
			})
		}
	}
}

// TestBoolJudgesTheSweptCircuit pins the one case where the one-pass
// optimizer and the old loop differ, in the new one's favour: collapsing
// (x+5)-5... chains mints a constant that ends up dead, the unswept
// rebuild is therefore no smaller than its input, and the old loop threw
// it away before the sweep could make it win.
func TestBoolJudgesTheSweptCircuit(t *testing.T) {
	c := boolcircuit.New()
	x := c.Input()
	g1 := c.Add(x, c.Const(5))
	g2 := c.Add(g1, c.Const(-5))
	g3 := c.Not(g1)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	c.MarkOutput(g3)

	if ref := opt.BoolMultiPassRef(c); ref != c {
		t.Fatalf("reference was expected to keep its input, got %d gates", ref.Size())
	}
	got := mustBool(t, c)
	if got.Size() != 4 || got.Depth() != 2 {
		t.Fatalf("one pass: %d gates, depth %d; want 4 gates (x, 5, x+5, not), depth 2", got.Size(), got.Depth())
	}
	assertMatchesReference(t, c, rand.New(rand.NewSource(1)))
}

// wideSynthetic builds a circuit of about n live gates that neither
// folds nor shares, so the optimizer has to walk all of it.
func wideSynthetic(n int) *boolcircuit.Circuit {
	c := boolcircuit.New()
	c.Grow(n + 2)
	x, y := c.Input(), c.Input()
	acc := c.Add(x, y)
	for c.Size() < n {
		acc = c.Add(c.Mul(acc, x), c.Xor(acc, y))
	}
	c.MarkOutput(acc)
	return c
}

// TestBoolCancelMidOptimize cancels the context while the optimizer is
// inside a circuit that takes it far longer than the cancel delay, and
// expects the typed error promptly — the stage used to ignore ctx
// altogether.
func TestBoolCancelMidOptimize(t *testing.T) {
	c := wideSynthetic(1_000_000)
	for name, run := range map[string]func(context.Context) error{
		"BoolCtx": func(ctx context.Context) error { _, err := opt.BoolCtx(ctx, c); return err },
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var canceledAt time.Time
			timer := time.AfterFunc(10*time.Millisecond, func() {
				canceledAt = time.Now()
				cancel()
			})
			defer timer.Stop()
			err := run(ctx)
			returned := time.Now()
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("got %v, want guard.ErrCanceled (the circuit must outlast the cancel delay)", err)
			}
			if lag := returned.Sub(canceledAt); lag > 100*time.Millisecond {
				t.Fatalf("returned %v after the cancel, want < 100ms", lag)
			}
		})
	}
}

// TestBoolHonoursGateBudget: a guard.Budget gate cap on the context
// stops the rebuild with the typed budget error.
func TestBoolHonoursGateBudget(t *testing.T) {
	c := wideSynthetic(50_000)
	ctx := guard.WithBudget(context.Background(), &guard.Budget{MaxGates: 10_000})
	if _, err := opt.BoolCtx(ctx, c); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("got %v, want guard.ErrBudgetExceeded", err)
	}
}
