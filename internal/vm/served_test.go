package vm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// servedCircuit compiles q the way the daemon does for a generated
// database — constraints derived from the data — and returns the word
// circuit with the database's packed input words.
func servedCircuit(t *testing.T, q *query.Query, seed int64, tuples int) (*boolcircuit.Circuit, []Word) {
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

// checkCatalog holds the vm to the interpreter, output word for output
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
						inputs[r][i] = adversarialWord(rng) ^ Word(rng.Intn(3))
					}
				}
			}
			p, err := Compile(context.Background(), c)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ent.Name, seed, err)
			}
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

// TestVMServedShapeSize pins what fusing buys on the benchmark's hot-eval
// shape, triangle at 16 tuples under derived constraints: 99 408 live
// gates in 1 426 levels run as at most 55 000 instructions in at most
// 1 100, in no more slots than before. With -v it also prints the opcode
// census of every shape the benchmark serves, the table EXPERIMENTS.md
// keeps: which opcodes an evaluation is made of, and so what a next
// fused form could be worth.
func TestVMServedShapeSize(t *testing.T) {
	names := [numOps]string{opAdd: "add", opSub: "sub", opMul: "mul", opMod: "mod", opAnd: "and", opOr: "or",
		opXor: "xor", opNot: "not", opEq: "eq", opLt: "lt", opMux: "mux", opLex: "lex", opSwap: "swap"}
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
		p, err := Compile(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var count [numOps]int
		for _, op := range p.ops {
			count[op]++
		}
		census := ""
		for op, k := range count {
			if k > 0 {
				census += fmt.Sprintf(" %s %d", names[op], k)
			}
		}
		t.Logf("%s: %d gates -> %d instructions, %d runs, %d levels, %d slots:%s",
			shape.name, p.Gates(), p.Instructions(), p.Runs(), p.Levels(), p.Slots(), census)
		if shape.name == "triangle·16" && (p.Instructions() > 55000 || p.Levels() > 1100 || p.Slots() > 1570) {
			t.Fatalf("triangle·16: %d instructions in %d levels over %d slots; want at most 55000, 1100, 1570",
				p.Instructions(), p.Levels(), p.Slots())
		}
	}
}
