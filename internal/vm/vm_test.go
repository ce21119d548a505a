package vm

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
)

// allOpsCircuit exercises every vm opcode at least once, with enough
// structure that a wrong level layout or operand slot scrambles the
// outputs.
func allOpsCircuit() *boolcircuit.Circuit {
	c := boolcircuit.New()
	in := c.Inputs(4)
	k := c.Const(7)
	add := c.Add(in[0], in[1])
	sub := c.Sub(in[1], in[2])
	mul := c.Mul(add, sub)
	mod := c.ModC(mul, k)
	and := c.And(in[2], in[3])
	or := c.Or(add, and)
	xor := c.Xor(or, mod)
	not := c.Not(xor)
	eq := c.Eq(mod, c.Const(3))
	lt := c.Lt(in[0], in[3])
	mux := c.Mux(eq, not, lt)
	deep := c.Mux(lt, c.Add(mux, k), c.ModC(xor, in[0]))
	for _, w := range []int{add, mod, not, eq, lt, mux, deep} {
		c.MarkOutput(w)
	}
	return c
}

// randomCircuit builds a random leveled word circuit over nIn inputs.
func randomCircuit(rng *rand.Rand, nIn, nGates int) *boolcircuit.Circuit {
	c := boolcircuit.New()
	wires := c.Inputs(nIn)
	wires = append(wires, c.Const(rng.Int63n(100)-50))
	pick := func() int { return wires[rng.Intn(len(wires))] }
	for i := 0; i < nGates; i++ {
		var w int
		switch rng.Intn(14) {
		case 12:
			// One lexicographic-compare step, the shape Compile fuses.
			a, b := pick(), pick()
			w = c.Or(c.Lt(a, b), c.And(c.Eq(a, b), pick()))
		case 13:
			// A conditional swap; both halves join the wire pool.
			cond, a, b := pick(), pick(), pick()
			wires = append(wires, c.Mux(cond, a, b))
			w = c.Mux(cond, b, a)
		case 0:
			w = c.Add(pick(), pick())
		case 1:
			w = c.Sub(pick(), pick())
		case 2:
			w = c.Mul(pick(), pick())
		case 3:
			w = c.ModC(pick(), pick())
		case 4:
			w = c.And(pick(), pick())
		case 5:
			w = c.Or(pick(), pick())
		case 6:
			w = c.Xor(pick(), pick())
		case 7:
			w = c.Not(pick())
		case 8:
			w = c.Eq(pick(), pick())
		case 9:
			w = c.Lt(pick(), pick())
		case 10:
			w = c.Mux(pick(), pick(), pick())
		default:
			w = c.Const(rng.Int63())
		}
		wires = append(wires, w)
	}
	// Mark a handful of the most recent wires so deep gates are visible.
	for i := 0; i < 5 && i < len(wires); i++ {
		c.MarkOutput(wires[len(wires)-1-i])
	}
	return c
}

func randInputs(rng *rand.Rand, n, B int) [][]Word {
	out := make([][]Word, B)
	for r := range out {
		out[r] = make([]Word, n)
		for i := range out[r] {
			out[r][i] = rng.Int63() - (1 << 62)
		}
	}
	return out
}

// checkAgainstInterp runs the batch through the vm and each request
// through the reference gate-walk evaluator, and compares.
func checkAgainstInterp(t *testing.T, c *boolcircuit.Circuit, inputs [][]Word) {
	t.Helper()
	ctx := context.Background()
	prog, err := Compile(ctx, c)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := prog.validate(); err != nil {
		t.Fatalf("compiled program: %v", err)
	}
	got, err := prog.EvalBatch(ctx, inputs)
	if err != nil {
		t.Fatalf("EvalBatch: %v", err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("got %d results, want %d", len(got), len(inputs))
	}
	for r, in := range inputs {
		want, err := c.EvaluateCtx(context.Background(), in)
		if err != nil {
			t.Fatalf("request %d: interp: %v", r, err)
		}
		if len(got[r]) != len(want) {
			t.Fatalf("request %d: %d outputs, want %d", r, len(got[r]), len(want))
		}
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("request %d output %d: vm=%d interp=%d", r, i, got[r][i], want[i])
			}
		}
	}
}

func TestVMMatchesInterpAllOps(t *testing.T) {
	c := allOpsCircuit()
	rng := rand.New(rand.NewSource(1))
	for _, B := range []int{1, 2, 7, 64} {
		checkAgainstInterp(t, c, randInputs(rng, c.NumInputs(), B))
	}
	// Edge values: zeros, ones, extremes, negative mod operands.
	edges := [][]Word{
		{0, 0, 0, 0},
		{1, -1, 1, -1},
		{1<<63 - 1, -(1 << 62), 3, -7},
		{-5, 7, 0, 1},
	}
	checkAgainstInterp(t, c, edges)
}

func TestVMMatchesInterpRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 1+rng.Intn(6), 1+rng.Intn(200))
		checkAgainstInterp(t, c, randInputs(rng, c.NumInputs(), 1+rng.Intn(16)))
	}
}

func TestVMEmptyBatch(t *testing.T) {
	prog, err := Compile(context.Background(), allOpsCircuit())
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.EvalBatch(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

func TestVMBatchOfOne(t *testing.T) {
	c := allOpsCircuit()
	checkAgainstInterp(t, c, [][]Word{{3, 5, -2, 9}})
}

func TestVMInputWidthMismatch(t *testing.T) {
	prog, err := Compile(context.Background(), allOpsCircuit())
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.EvalBatch(context.Background(), [][]Word{{1, 2, 3, 4}, {1, 2}})
	if !errors.Is(err, guard.ErrInvalidInput) {
		t.Fatalf("short request: err=%v, want ErrInvalidInput", err)
	}
}

func TestVMCompileNil(t *testing.T) {
	if _, err := Compile(context.Background(), nil); !errors.Is(err, guard.ErrInvalidInput) {
		t.Fatalf("nil circuit: err=%v, want ErrInvalidInput", err)
	}
}

// countdownCtx reports itself canceled after its poll budget runs out,
// making mid-evaluation cancellation deterministic (a timer would race
// the nanosecond-scale gate loop).
type countdownCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// chainCircuit is n gates deep and n gates live: every gate feeds the
// next, so each level is one single-instruction run and checkpoints have
// to accumulate across runs and levels.
func chainCircuit(n int) *boolcircuit.Circuit {
	c := boolcircuit.New()
	in := c.Inputs(4)
	w := in[0]
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			w = c.Add(w, in[i%4])
		case 1:
			w = c.Xor(w, in[i%4])
		default:
			w = c.Sub(w, in[i%4])
		}
	}
	c.MarkOutput(w)
	return c
}

func TestVMMidBatchCancellation(t *testing.T) {
	c := chainCircuit(5000)
	prog, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	compileCancellation(t, c)
	if prog.Instructions() != 5000 || prog.Levels() != 5000 {
		t.Fatalf("chain has %d instructions in %d levels, want 5000 in 5000", prog.Instructions(), prog.Levels())
	}
	rng := rand.New(rand.NewSource(7))
	for _, B := range []int{1, 8} {
		inputs := randInputs(rng, c.NumInputs(), B)
		// The happy path first, counting polls: the cadence is one per
		// pollStep instructions however many levels those span, plus the
		// one on entry and the one at the end.
		const plenty = 1 << 40
		ctx := &countdownCtx{Context: context.Background()}
		ctx.polls.Store(plenty)
		if _, err := prog.EvalBatch(ctx, inputs); err != nil {
			t.Fatal(err)
		}
		polls := plenty - ctx.polls.Load()
		if lo, hi := int64(5000/pollStep), int64(5000/pollStep+3); polls < lo || polls > hi {
			t.Fatalf("B=%d: %d polls over 5000 instructions, want %d..%d", B, polls, lo, hi)
		}
		// Then let the context die after a few checkpoints: the
		// evaluation must stop early with ErrCanceled.
		ctx.polls.Store(3)
		_, err = prog.EvalBatch(ctx, inputs)
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("B=%d mid-batch cancel: err=%v, want ErrCanceled", B, err)
		}
		if over := -1 - ctx.polls.Load(); over != 0 {
			t.Fatalf("B=%d: %d polls after the one that reported cancellation", B, over)
		}
	}
}

// compileCancellation: Compile polls its context in every pass — once
// per 4 096 gates in the reader count, the opcode/level walk and the
// level bucketing, once in the gate-budget check, and once per 4 096
// entries in the run count and the layout — and a context that dies at
// any one of those polls stops the compile with ErrCanceled, polling no
// more. c must be 4 097 to 8 192 gates long with as many entries.
func compileCancellation(t *testing.T, c *boolcircuit.Circuit) {
	const plenty = 1 << 40
	ctx := &countdownCtx{Context: context.Background()}
	ctx.polls.Store(plenty)
	if _, err := Compile(ctx, c); err != nil {
		t.Fatal(err)
	}
	polls := plenty - ctx.polls.Load()
	if want := int64(3*2 + 1 + 2*2); polls != want {
		t.Fatalf("compile of %d gates: %d polls, want %d", c.Size(), polls, want)
	}
	for at := int64(0); at < polls; at++ {
		ctx.polls.Store(at)
		if _, err := Compile(ctx, c); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("canceled at poll %d of %d: err=%v, want ErrCanceled", at+1, polls, err)
		}
		if over := -1 - ctx.polls.Load(); over != 0 {
			t.Fatalf("canceled at poll %d of %d: %d polls after the one that reported cancellation", at+1, polls, over)
		}
	}
}

func TestVMBudgetExhaustionMidLevel(t *testing.T) {
	// One wide level of one opcode: thousands of independent gates at
	// depth 1, so the budget trips partway through what would be a single
	// run were runs not split at pollStep. (Gates are hash-consed, so each
	// must be structurally distinct, and every one is marked as an output
	// so dead-gate elimination keeps the level wide.)
	c := boolcircuit.New()
	in := c.Inputs(2)
	for i := 0; i < 3000; i++ {
		c.MarkOutput(c.Add(in[0], c.Const(int64(i))))
	}
	prog, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Levels() != 1 {
		t.Fatalf("wide circuit has %d levels, want 1", prog.Levels())
	}
	for _, B := range []int{1, 4} {
		ctx := guard.WithBudget(context.Background(), &guard.Budget{MaxGates: 1000})
		_, err = prog.EvalBatch(ctx, randInputs(rand.New(rand.NewSource(9)), 2, B))
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("B=%d budget mid-level: err=%v, want ErrBudgetExceeded", B, err)
		}
		// 512 completed gates pass the cap of 1000, 1024 do not.
		if !strings.Contains(err.Error(), "after 1024 gates") {
			t.Fatalf("B=%d: budget tripped at the wrong checkpoint: %v", B, err)
		}
	}
	t.Run("fused", budgetChargesSourceGates)
}

// budgetChargesSourceGates: MaxGates is a cap on circuit gates, so a
// program of fused instructions must trip it where the same gates unfused
// would, give or take one run — not 1.9× later, which is what charging
// instructions would do. The twin circuit has the same gates in the same
// levels and fuses nothing: every Lt is also an output, and the two MUXes
// of a pair listen to different conditions.
func budgetChargesSourceGates(t *testing.T) {
	const k = 1000 // lex steps and swap pairs, each: 6k gates in all
	build := func(fusable bool) *boolcircuit.Circuit {
		c := boolcircuit.New()
		in := c.Inputs(4)
		for i := 0; i < k; i++ {
			a, b := in[0], c.Const(int64(i))
			lt := c.Lt(a, b)
			c.MarkOutput(c.Or(lt, c.And(c.Eq(a, b), in[1])))
			cond := in[2]
			if !fusable {
				c.MarkOutput(lt)
				cond = in[3]
			}
			c.MarkOutput(c.Mux(in[2], a, b))
			c.MarkOutput(c.Mux(cond, b, a))
		}
		return c
	}
	var progs [2]*Program
	for i, fusable := range []bool{true, false} {
		var err error
		if progs[i], err = Compile(context.Background(), build(fusable)); err != nil {
			t.Fatal(err)
		}
	}
	fused, plain := progs[0], progs[1]
	if swaps, lexes := fused.Fused(); swaps != k || lexes != k || fused.Instructions() != 2*k {
		t.Fatalf("fused program: %d swaps, %d lex steps, %d instructions; want %d, %d, %d", swaps, lexes, fused.Instructions(), k, k, 2*k)
	}
	if swaps, lexes := plain.Fused(); swaps != 0 || lexes != 0 || plain.Instructions() != 6*k {
		t.Fatalf("twin program: %d swaps, %d lex steps, %d instructions; want 0, 0, %d", swaps, lexes, plain.Instructions(), 6*k)
	}
	tripAt := func(p *Program, B, maxGates int) int {
		done, tripped := budgetTrip(t, p, randInputs(rand.New(rand.NewSource(9)), 4, B), maxGates)
		if !tripped {
			t.Fatalf("B=%d cap %d: the evaluation fit under the cap", B, maxGates)
		}
		return done
	}
	// The longest run is pollStep lex steps, four gates each.
	const oneRun = pollStep * 4
	for _, B := range []int{1, 8} {
		for _, maxGates := range []int{1, 1000, 2500, 3999, 5000, 6*k - 1} {
			got, want := tripAt(fused, B, maxGates), tripAt(plain, B, maxGates)
			if got <= maxGates || got < want-oneRun || got > want+oneRun {
				t.Fatalf("B=%d cap %d: fused program tripped after %d gates, its unfused twin after %d", B, maxGates, got, want)
			}
		}
		// A cap the circuit fits under passes both, to the gate.
		for _, p := range progs {
			ctx := guard.WithBudget(context.Background(), &guard.Budget{MaxGates: 6 * k})
			if _, err := p.EvalBatch(ctx, randInputs(rand.New(rand.NewSource(9)), 4, B)); err != nil {
				t.Fatalf("B=%d cap %d: %v", B, 6*k, err)
			}
		}
	}
}

func TestVMFaultInjection(t *testing.T) {
	c := allOpsCircuit()
	prog, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, B := range []int{1, 8} {
		inputs := randInputs(rand.New(rand.NewSource(13)), c.NumInputs(), B)
		in := faultinject.New()
		boom := errors.New("injected word-gate fault")
		in.FailAt(faultinject.SiteWordGate, 3, boom)
		ctx := faultinject.WithInjector(context.Background(), in)
		_, err = prog.EvalBatch(ctx, inputs)
		if !errors.Is(err, boom) {
			t.Fatalf("B=%d injected fault: err=%v, want %v", B, err, boom)
		}
		// An injector whose rule never fires sees one word-gate hit per
		// instruction, and the per-instruction path computes the same
		// answers as the per-run one.
		in = faultinject.New()
		in.FailAt(faultinject.SiteWordGate, 1<<40, boom)
		got, err := prog.EvalBatch(faultinject.WithInjector(context.Background(), in), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if hits := in.Hits(faultinject.SiteWordGate); hits != int64(prog.Instructions()) {
			t.Fatalf("B=%d: injector saw %d word-gate hits, want %d", B, hits, prog.Instructions())
		}
		want, err := prog.EvalBatch(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("B=%d: outputs differ with an idle injector: %v vs %v", B, got, want)
		}
	}
}

func TestVMSlabReuse(t *testing.T) {
	c := allOpsCircuit()
	prog, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Repeated evaluations of one program at varying batch sizes reuse
	// pooled slabs; results must stay exact (a stale-value bug would
	// surface here because slabs are not zeroed between runs).
	for i := 0; i < 10; i++ {
		B := 1 + rng.Intn(32)
		inputs := randInputs(rng, c.NumInputs(), B)
		got, err := prog.EvalBatch(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		for r, in := range inputs {
			want, err := c.EvaluateCtx(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[r][j] != want[j] {
					t.Fatalf("iteration %d request %d output %d: vm=%d interp=%d", i, r, j, got[r][j], want[j])
				}
			}
		}
	}

	// One program served alternately at a batch of one and at small
	// batches — what same-fingerprint coalescing does — settles on one
	// arena: in steady state an evaluation allocates its two output
	// vectors and nothing else. (The race detector makes sync.Pool drop
	// items at random, so the count only holds without it.)
	fresh, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if s := fresh.getSlab(fresh.numSlots); cap(*s) < 8*fresh.numSlots {
		t.Fatalf("the first slab, taken for a stride of one, holds %d words: too few for a stride of 8 over %d slots", cap(*s), fresh.numSlots)
	}
	if raceEnabled {
		return
	}
	var batches [][][]Word
	for _, B := range []int{1, 8, 1, 16} {
		batches = append(batches, randInputs(rng, c.NumInputs(), B))
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, inputs := range batches {
			if _, err := prog.EvalBatch(context.Background(), inputs); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := float64(2 * len(batches)); allocs != want {
		t.Fatalf("alternating B in {1,8,1,16}: %v allocations per round, want %v (two output vectors per evaluation)", allocs, want)
	}
}

func TestVMProgramShape(t *testing.T) {
	c := allOpsCircuit()
	prog, err := Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Gates() != c.Size() {
		t.Fatalf("Gates=%d, want circuit size %d", prog.Gates(), c.Size())
	}
	if prog.Levels() != c.Depth() {
		t.Fatalf("Levels=%d, want depth %d", prog.Levels(), c.Depth())
	}
	if prog.NumInputs() != c.NumInputs() {
		t.Fatalf("NumInputs=%d, want %d", prog.NumInputs(), c.NumInputs())
	}
	if prog.NumOutputs() != len(c.Outputs()) {
		t.Fatalf("NumOutputs=%d, want %d", prog.NumOutputs(), len(c.Outputs()))
	}
	if prog.Instructions() >= prog.Gates() {
		t.Fatalf("Instructions=%d not below Gates=%d (inputs/consts must not be instructions)",
			prog.Instructions(), prog.Gates())
	}
}

// TestVMLevelsAreOpcodeRuns pins the layout Compile writes in place: the
// levels partition the instruction buffer, every level is a sequence of
// opcode runs in ascending opcode order, the levels are levels of the
// fused DAG — an instruction reads only slots written at an earlier level
// (or prefilled) and no two instructions of a level write the same slot —
// and the run table the executor walks partitions the buffer into runs of
// one opcode that cross no level boundary and are at most pollStep long,
// with the gates completed after each.
func TestVMLevelsAreOpcodeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var fused int
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(rng, 6, 400)
		if trial == 0 {
			// One level wider than pollStep, so a run has to be split.
			in := c.InputIDs()
			for i := 0; i < 3*pollStep; i++ {
				c.MarkOutput(c.Xor(in[0], c.Const(int64(1000+i))))
			}
		}
		p, err := Compile(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		swaps, lexes := p.Fused()
		fused += swaps + lexes

		// writtenAt[s] is the level that last wrote slot s, 0 for a
		// prefilled or never-written slot.
		writtenAt := make([]int, p.Slots())
		lo := int32(0)
		for l, hi := range p.levelEnd {
			if hi <= lo {
				t.Fatalf("level %d is empty or backwards: [%d,%d)", l+1, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if i > lo && p.ops[i] < p.ops[i-1] {
					t.Fatalf("level %d: opcode %d at %d follows opcode %d", l+1, p.ops[i], i, p.ops[i-1])
				}
				if (p.dst2[i] >= 0) != (p.ops[i] == opSwap) {
					t.Fatalf("instruction %d (opcode %d) has second destination %d", i, p.ops[i], p.dst2[i])
				}
				for _, d := range [2]int32{p.dst[i], p.dst2[i]} {
					if d < 0 {
						continue
					}
					if writtenAt[d] == l+1 {
						t.Fatalf("level %d: slot %d is written twice", l+1, d)
					}
					writtenAt[d] = l + 1
				}
			}
			for i := lo; i < hi; i++ {
				for _, s := range [3]int32{p.a[i], p.b[i], p.c[i]} {
					if s >= 0 && writtenAt[s] == l+1 {
						t.Fatalf("level %d: instruction %d reads slot %d, which the level writes", l+1, i, s)
					}
				}
			}
			lo = hi
		}
		if int(lo) != p.Instructions() {
			t.Fatalf("levels cover %d of %d instructions", lo, p.Instructions())
		}

		lo, level, longest, gates := 0, 0, int32(0), int32(0)
		for k, hi := range p.runEnd {
			if hi <= lo {
				t.Fatalf("run %d is empty or backwards: [%d,%d)", k, lo, hi)
			}
			longest = max(longest, hi-lo)
			for p.levelEnd[level] <= lo {
				level++
			}
			if hi > p.levelEnd[level] {
				t.Fatalf("run %d [%d,%d) crosses the end of level %d at %d", k, lo, hi, level+1, p.levelEnd[level])
			}
			for i := lo + 1; i < hi; i++ {
				if p.ops[i] != p.ops[lo] {
					t.Fatalf("run %d [%d,%d) mixes opcodes %d and %d", k, lo, hi, p.ops[lo], p.ops[i])
				}
			}
			gates += (hi - lo) * gateWeight[p.ops[lo]]
			if p.runGates[k] != gates {
				t.Fatalf("run %d: %d gates done by the run table, %d by the opcodes", k, p.runGates[k], gates)
			}
			lo = hi
		}
		if int(lo) != p.Instructions() {
			t.Fatalf("runs cover %d of %d instructions", lo, p.Instructions())
		}
		if want := p.Instructions() + swaps + 3*lexes; int(gates) != want {
			t.Fatalf("the run table ends at %d gates; %d instructions, %d swaps and %d lex steps stand for %d", gates, p.Instructions(), swaps, lexes, want)
		}
		if longest > pollStep || (trial == 0 && longest != pollStep) {
			t.Fatalf("trial %d: longest run is %d instructions, pollStep is %d", trial, longest, pollStep)
		}
	}
	if fused == 0 {
		t.Fatal("no trial fused anything: the fused layout went unchecked")
	}
}
