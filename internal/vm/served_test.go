package vm_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

// Word is the vm's word, for brevity.
type Word = vm.Word

// servedCircuit compiles q the way the daemon does for a generated
// database — constraints derived from the data — and returns the word
// circuit with the database's packed input words.
func servedCircuit(t testing.TB, q *query.Query, seed int64, tuples int) (*boolcircuit.Circuit, []Word) {
	t.Helper()
	db := workload.ForQuery(q, seed, tuples)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := core.CompileQueryCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := compiled.PackOblivious(db)
	if err != nil {
		t.Fatal(err)
	}
	return compiled.Obliv.C, packed
}

// checkCatalog holds every catalog program to validate, which decoded
// programs must pass (slots in range, no level writing a slot twice or
// reading one before it is written), and to its encoding's round trip,
// and the vm to the interpreter, output word for output
// word, on every catalog query compiled against eight seeded databases
// each, at a stride of one, of 8 and of 16. Lane 0 carries the database;
// the other lanes carry it with a quarter of the words replaced by random
// and extreme values, which no longer encode a database but are inputs the
// circuit is total on, and reach the comparators with operands a sorted,
// valid relation never shows them.
func checkCatalog(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var swaps, lexes int
	for _, ent := range query.Catalog() {
		for seed := int64(1); seed <= 8; seed++ {
			c, packed := servedCircuit(t, ent.Query, seed, 4)
			inputs := make([][]Word, 16)
			inputs[0] = packed
			for r := 1; r < len(inputs); r++ {
				inputs[r] = append([]Word(nil), packed...)
				for i := range inputs[r] {
					if rng.Intn(4) == 0 {
						inputs[r][i] = vm.AdversarialWord(rng) ^ Word(rng.Intn(3))
					}
				}
			}
			p, err := vm.Compile(context.Background(), c)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ent.Name, seed, err)
			}
			if err := vm.Validate(p); err != nil {
				t.Fatalf("%s seed %d: compiled program: %v", ent.Name, seed, err)
			}
			checkRoundTrip(t, fmt.Sprintf("%s seed %d", ent.Name, seed), p)
			s, l := p.Fused()
			swaps, lexes = swaps+s, lexes+l
			want := make([][]Word, len(inputs))
			for r, in := range inputs {
				if want[r], err = c.EvaluateCtx(context.Background(), in); err != nil {
					t.Fatalf("%s seed %d: interp: %v", ent.Name, seed, err)
				}
			}
			for _, B := range []int{1, 5, 16} {
				got, err := p.EvalBatch(context.Background(), inputs[:B])
				if err != nil {
					t.Fatalf("%s seed %d B=%d: %v", ent.Name, seed, B, err)
				}
				for r := range got {
					for i := range want[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("%s seed %d B=%d lane %d output %d: vm=%d interp=%d", ent.Name, seed, B, r, i, got[r][i], want[r][i])
						}
					}
				}
			}
		}
	}
	if swaps == 0 || lexes == 0 {
		t.Fatalf("the catalog fused %d swaps and %d lex steps: the fused kernels went unchecked", swaps, lexes)
	}
}

func TestVMCatalogMatchesInterp(t *testing.T) { checkCatalog(t) }

// checkRoundTrip holds the program encoding to a fixed point: p decodes
// from its encoding to a program equal to it field for field, the
// counts the encoding leaves out included.
func checkRoundTrip(t *testing.T, name string, p *vm.Program) {
	t.Helper()
	back, err := vm.DecodeProgram(p.Append(nil))
	if err != nil {
		t.Fatalf("%s: the program's encoding does not decode: %v", name, err)
	}
	if diff := vm.ProgramDiff(back, p); diff != "" {
		t.Fatalf("%s: the decoded program differs in %s", name, diff)
	}
}

// TestVMServedShapeSize pins what fusing buys on the benchmark's hot-eval
// shape, triangle at 16 tuples under derived constraints: 99 408 live
// gates in 1 426 levels run as at most 55 000 instructions in at most
// 1 100, in no more slots than before. With -v it also prints the opcode
// census of every shape the benchmark serves, the table EXPERIMENTS.md
// keeps: which opcodes an evaluation is made of, and so what a next
// fused form could be worth.
func TestVMServedShapeSize(t *testing.T) {
	for _, shape := range []struct {
		name, src string
		tuples    int
	}{
		{"triangle·16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
		{"triangle·12", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 12},
		{"cycle4·8", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", 8},
		{"triangle·4", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 4},
		{"path2·4", "Q(A,B,C) :- R(A,B), S(B,C)", 4},
		{"pair·4", "Q(A,B) :- R(A,B), S(A,B)", 4},
	} {
		c, _ := servedCircuit(t, query.MustParse(shape.src), 1, shape.tuples)
		p, err := vm.Compile(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d gates -> %d instructions, %d runs, %d levels, %d slots:%s",
			shape.name, p.Gates(), p.Instructions(), p.Runs(), p.Levels(), p.Slots(), vm.OpCensus(p))
		if shape.name == "triangle·16" && (p.Instructions() > 55000 || p.Levels() > 1100 || p.Slots() > 1570) {
			t.Fatalf("triangle·16: %d instructions in %d levels over %d slots; want at most 55000, 1100, 1570",
				p.Instructions(), p.Levels(), p.Slots())
		}
	}
}

// sharedProgram compiles q against degree constraints two different
// seeded databases both satisfy (the element-wise maximum of what each
// measures), so one program serves both, decodes the program from its
// encoding, and packs the two.
func sharedProgram(t *testing.T, name string, q *query.Query, tuples int) (*vm.Program, [2][]Word) {
	t.Helper()
	ctx := context.Background()
	dbs := [2]query.Database{workload.ForQuery(q, 1, tuples), workload.ForQuery(q, 2, tuples)}
	dcs, err := query.DeriveDC(q, dbs[0])
	if err != nil {
		t.Fatal(err)
	}
	other, err := query.DeriveDC(q, dbs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(dcs) {
		t.Fatalf("%s: the two databases derive %d and %d constraints", name, len(dcs), len(other))
	}
	for i, dc := range other {
		if dc.X != dcs[i].X || dc.Y != dcs[i].Y {
			t.Fatalf("%s: derived constraint %d differs in shape between the databases", name, i)
		}
		dcs[i].N = max(dcs[i].N, dc.N)
	}
	compiled, err := core.CompileQueryCtx(ctx, q, dcs)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	// The program runs as a stored plan runs it: decoded from its
	// encoding.
	compiledProg, err := vm.Compile(ctx, compiled.Obliv.C)
	if err != nil {
		t.Fatalf("vm.Compile %s: %v", name, err)
	}
	prog, err := vm.DecodeProgram(compiledProg.Append(nil))
	if err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	var packed [2][]Word
	for i, db := range dbs {
		if packed[i], err = compiled.PackOblivious(db); err != nil {
			t.Fatalf("pack %s: %v", name, err)
		}
	}
	if slices.Equal(packed[0], packed[1]) {
		t.Fatalf("%s: the two databases pack to the same input words; the comparison would be vacuous", name)
	}
	return prog, packed
}

// TestVMEvalIsOblivious holds the evaluator to the paper's contract as an
// observation instead of an argument: on two different databases of one
// shape the sequence of runs, the opcode of each, every slab address a run
// reads and every slab address its kernel writes are the same, and so are
// the positions of the context/budget checkpoints — at a stride of one
// (the scalar kernel) and at a stride of 8 (the vector kernels where the
// CPU has them, the scalar kernel lane by lane elsewhere).
func TestVMEvalIsOblivious(t *testing.T) {
	for _, shape := range []struct {
		query  string
		q      *query.Query
		tuples int
	}{{"triangle", query.Triangle(), 8}, {"cycle4", query.Cycle4(), 6}} {
		prog, packed := sharedProgram(t, shape.query, shape.q, shape.tuples)
		for _, B := range []int{1, 8} {
			var traces [2][]int32
			var polls [2][]int
			var outs [2][][]Word
			for d := range packed {
				// Lane 0 carries the database under test; the other lanes
				// of a batch carry it too, rotated, so every lane differs
				// between the two evaluations.
				inputs := make([][]Word, B)
				for r := range inputs {
					inputs[r] = packed[(d+r)%2]
				}
				traces[d], outs[d] = vm.TraceRuns(t, prog, inputs)
				polls[d] = vm.Checkpoints(t, prog, inputs)
				want, err := prog.EvalBatch(context.Background(), inputs)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != B || !slices.EqualFunc(want, outs[d], slices.Equal[[]Word]) {
					t.Fatalf("%s B=%d database %d: the traced walk and EvalBatch disagree on the outputs", shape.query, B, d)
				}
			}
			if slices.Equal(outs[0][0], outs[1][0]) {
				t.Fatalf("%s B=%d: both databases produce the same output words; the comparison would be vacuous", shape.query, B)
			}
			if !slices.Equal(traces[0], traces[1]) {
				t.Fatalf("%s B=%d: the (run, opcode, addresses read, addresses written) traces of the two databases differ", shape.query, B)
			}
			if len(polls[0]) < 2 || !slices.Equal(polls[0], polls[1]) {
				t.Fatalf("%s B=%d: checkpoints at %v on one database, %v on the other", shape.query, B, polls[0], polls[1])
			}
		}
	}
}

// TestPlanProgramEqualsSwept holds the program a plan compile builds from
// the folded circuit, beside the sweep (core.Compiled.Prog), to the one
// vm.Compile builds from the swept circuit, field for field: the gates
// the sweep drops are the ones the compiler skips as dead, so the two
// must agree on every instruction, slot and table, and on Gates(), the
// swept circuit's size. The shapes are the served templates at 4, 8, 12
// and 16 tuples, data seeds 1-3, plain and salted, compiled as the
// daemon compiles a request, then every full catalog query under a
// uniform bound.
func TestPlanProgramEqualsSwept(t *testing.T) {
	ctx := context.Background()
	check := func(name string, q *query.Query, dcs query.DCSet) {
		t.Helper()
		canon, err := query.Canonicalize(q, dcs)
		if err != nil {
			t.Fatalf("%s: canonicalize: %v", name, err)
		}
		compiled, err := core.CompileQueryCtx(ctx, canon.Query, canon.DCs)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		swept, err := vm.Compile(ctx, compiled.Obliv.C)
		if err != nil {
			t.Fatalf("%s: vm compile of the swept circuit: %v", name, err)
		}
		if compiled.Prog == nil {
			t.Fatalf("%s: the plan came without its program", name)
		}
		if diff := vm.ProgramDiff(compiled.Prog, swept); diff != "" {
			t.Fatalf("%s: the plan's program and the swept circuit's differ in %s", name, diff)
		}
		if err := vm.Validate(compiled.Prog); err != nil {
			t.Fatalf("%s: the plan's program: %v", name, err)
		}
		checkRoundTrip(t, name, compiled.Prog)
		if got, want := compiled.Prog.Gates(), compiled.Obliv.C.Size(); got != want {
			t.Fatalf("%s: program stands for %d gates, the swept circuit has %d", name, got, want)
		}
		if compiled.Opt.WordGatesBefore == compiled.Opt.WordGatesAfter {
			t.Fatalf("%s: the sweep removed nothing; the comparison would be vacuous", name)
		}
	}
	for _, src := range []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
		"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
		"Q(A,B) :- R(A,B), S(A,B)",
		"Q(A,B,C) :- R(A,B), S(B,C)",
	} {
		for _, tuples := range []int{4, 8, 12, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, extra := range []string{"", "R <= 40"} {
					q, dcs, _, err := workload.Instance(src, extra, seed, tuples)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s·%d seed %d %q", src, tuples, seed, extra), q, dcs)
				}
			}
		}
	}
	for _, ent := range query.Catalog() {
		if !ent.Query.IsFull() || ent.Name == "bowtie" {
			continue // bowtie's compile alone takes minutes
		}
		n := 5
		if ent.Name == "star3" {
			n = 3
		}
		check(ent.Name, ent.Query, query.Cardinalities(ent.Query, float64(n)))
	}
}

// TestVMCompileAllocs gates what a vm compile allocates on two served
// shapes: the program's own arrays and a few fixed tables, not one
// allocation per level or per slot. The per-gate working arrays come
// from a pool, which the race detector empties at random, so a race
// build skips the gate.
func TestVMCompileAllocs(t *testing.T) {
	if vm.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, shape := range []struct {
		name, src string
		tuples    int
		max       float64
	}{
		{"cycle4·8", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", 8, 40},
		{"triangle·4", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 4, 40},
	} {
		c, _ := servedCircuit(t, query.MustParse(shape.src), 1, shape.tuples)
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			_, err = vm.Compile(context.Background(), c)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocations per compile", shape.name, allocs)
		if allocs > shape.max {
			t.Errorf("%s: %.0f allocations per vm compile, want at most %.0f", shape.name, allocs, shape.max)
		}
	}
}
