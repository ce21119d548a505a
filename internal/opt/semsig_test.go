package opt_test

import (
	"context"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/opt"
	"circuitql/internal/query"
	"circuitql/internal/testutil"
)

// TestSemanticCSECatalogRegression pins the acceptance criterion:
// semantic CSE must merge gate pairs that structural-hash CSE misses on
// at least two catalog queries (we pin four), and the merged circuit
// must compute exactly what the structural-only circuit does. The
// merges come from provable patterns the constructions emit — Bool(x)
// over 0/1 marker wires in pkCopy, wiresEqual's And(Const 1, e) seed
// conjunct, Mux(v, 1, 0) over validity bits.
func TestSemanticCSECatalogRegression(t *testing.T) {
	pinned := []string{"triangle", "path2", "path3", "cycle4"}
	for _, name := range pinned {
		var q *query.Query
		for _, ent := range query.Catalog() {
			if ent.Name == name {
				q = ent.Query
			}
		}
		dcs := query.Cardinalities(q, 3)
		base, err := core.CompileQueryOptsCtx(context.Background(), q, dcs, core.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sem, err := core.CompileQueryOptsCtx(context.Background(), q, dcs, core.CompileOptions{SemanticCSE: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := sem.Opt
		if rep == nil {
			t.Fatalf("%s: no optimizer report", name)
		}
		if rep.SemMerges < 1 {
			t.Errorf("%s: semantic CSE adopted no merges beyond structural hashing", name)
		}
		if rep.WordGatesAfter > base.Opt.WordGatesAfter {
			t.Errorf("%s: semantic CSE grew the circuit: %d -> %d gates",
				name, base.Opt.WordGatesAfter, rep.WordGatesAfter)
		}
		for seed := int64(1); seed <= 3; seed++ {
			db := testutil.RandomDB(q, seed, 3)
			want, err := base.EvaluateOblivious(db)
			if err != nil {
				t.Fatalf("%s seed %d base eval: %v", name, seed, err)
			}
			got, err := sem.EvaluateOblivious(db)
			if err != nil {
				t.Fatalf("%s seed %d sem eval: %v", name, seed, err)
			}
			if d := testutil.DiffRows(testutil.Rows(want), testutil.Rows(got), "structural", "semantic"); d != "" {
				t.Errorf("%s seed %d: %s", name, seed, d)
			}
		}
	}
}

// TestBoolSemDeterminism: the pass is seeded and must be a pure
// function of its input — two runs on the same circuit produce gate-
// identical results and identical stats.
func TestBoolSemDeterminism(t *testing.T) {
	c := buildFuzzCircuit([]byte{3, 8, 1, 2, 0, 6, 3, 3, 0, 4, 4, 5, 0, 10, 2, 6, 1, 8, 0, 7, 0, 5, 3})
	o1, s1 := mustBoolSem(t, c, opt.SemConfig{})
	o2, s2 := mustBoolSem(t, c, opt.SemConfig{})
	if s1 != s2 {
		t.Fatalf("stats differ across runs: %+v vs %+v", s1, s2)
	}
	if o1.Size() != o2.Size() || o1.Depth() != o2.Depth() {
		t.Fatalf("circuits differ: %d/%d vs %d/%d gates/depth", o1.Size(), o1.Depth(), o2.Size(), o2.Depth())
	}
	for i := 0; i < o1.Size(); i++ {
		if o1.GateAt(i) != o2.GateAt(i) {
			t.Fatalf("gate %d differs: %+v vs %+v", i, o1.GateAt(i), o2.GateAt(i))
		}
	}
}

// TestBoolSemContract: BoolSem preserves Bool's interface and monotone
// guarantees on targeted hand-built circuits exercising each prover
// rule family.
func TestBoolSemContract(t *testing.T) {
	cases := []struct {
		name  string
		build func(c *boolcircuit.Circuit)
		// wantMerge requires at least one semantic merge to fire.
		wantMerge bool
	}{
		{
			// Bool over an Eq output (0/1) is the identity; the two
			// And gates then become structurally equal and share.
			name: "bool_elim_01",
			build: func(c *boolcircuit.Circuit) {
				x, y, v := c.Input(), c.Input(), c.Input()
				e := c.Eq(x, y)
				c.MarkOutput(c.And(v, e))
				c.MarkOutput(c.And(v, c.Bool(e)))
			},
			wantMerge: true,
		},
		{
			// wiresEqual seeds its conjunction with And(Const 1, e).
			name: "and_one_01",
			build: func(c *boolcircuit.Circuit) {
				x, y := c.Input(), c.Input()
				e := c.Eq(x, y)
				c.MarkOutput(c.And(c.Const(1), e))
				c.MarkOutput(c.Xor(e, c.Const(1)))
			},
			wantMerge: true,
		},
		{
			// Mux(v, 1, 0) over a 0/1 validity bit is the bit itself.
			name: "mux_one_zero",
			build: func(c *boolcircuit.Circuit) {
				x, y := c.Input(), c.Input()
				v := c.Lt(x, y)
				c.MarkOutput(c.Mux(v, c.Const(1), c.Const(0)))
				c.MarkOutput(c.Or(v, v))
			},
			wantMerge: true,
		},
		{
			// Mul on 0/1 operands is And; reassociated chains match by
			// AC-flattening.
			name: "mul_and_ac",
			build: func(c *boolcircuit.Circuit) {
				x, y, z := c.Input(), c.Input(), c.Input()
				a, b := c.Eq(x, y), c.Lt(y, z)
				d := c.Eq(x, z)
				c.MarkOutput(c.And(c.And(a, b), d))
				c.MarkOutput(c.Mul(a, c.And(d, b)))
			},
			wantMerge: true,
		},
		{
			// Distinct predicates share the all-zero signature on most
			// vectors but must NOT merge: the prover refuses them.
			name: "distinct_predicates",
			build: func(c *boolcircuit.Circuit) {
				x := c.Input()
				c.MarkOutput(c.Eq(x, c.Const(100003)))
				c.MarkOutput(c.Eq(x, c.Const(200003)))
			},
			wantMerge: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := boolcircuit.New()
			tc.build(c)
			o, st := mustBoolSem(t, c, opt.SemConfig{})
			if o.NumInputs() != c.NumInputs() {
				t.Fatalf("input count changed: %d -> %d", c.NumInputs(), o.NumInputs())
			}
			if len(o.Outputs()) != len(c.Outputs()) {
				t.Fatalf("output count changed: %d -> %d", len(c.Outputs()), len(o.Outputs()))
			}
			if o.Size() > c.Size() {
				t.Fatalf("grew: %d -> %d gates", c.Size(), o.Size())
			}
			if tc.wantMerge && st.Merges == 0 {
				t.Errorf("expected a semantic merge, got none (stats %+v)", st)
			}
			// Exhaustive-ish equivalence on structured inputs.
			vals := []int64{-3, -1, 0, 1, 2, 100003, 200003, 1 << 40}
			in := make([]int64, c.NumInputs())
			var walk func(int)
			walk = func(pos int) {
				if pos == len(in) {
					want, err := c.Evaluate(in)
					if err != nil {
						t.Fatal(err)
					}
					got, err := o.Evaluate(in)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("inputs %v output %d: want %d got %d", in, i, want[i], got[i])
						}
					}
					return
				}
				for _, v := range vals {
					in[pos] = v
					walk(pos + 1)
				}
			}
			walk(0)
		})
	}
}
