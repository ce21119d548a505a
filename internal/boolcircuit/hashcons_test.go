package boolcircuit

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"circuitql/internal/guard"
)

// checkHashCons interprets data as a program of builder operations and
// runs it against the obvious model of hash-consing, a map[Gate]int:
// every push must return exactly the id the model returns — the old id
// for a gate seen before, the next id for a new one, always a new id
// for an input. The first byte picks a sizing hint (none, far too small,
// too small, ample); later steps also drop the index and re-hint in
// mid-build, so the append, the hint and the lazy rebuild (reindex) all
// meet the same model. No push may leave its anchor chain longer than
// chainCap, and the finished index must pass checkIndex. It returns how
// many pushes were answered with an existing gate.
func checkHashCons(t *testing.T, data []byte) (shared int) {
	t.Helper()
	c := New()
	model := map[Gate]int{}
	var gates []Gate
	push := func(g Gate) {
		t.Helper()
		want, seen := model[g]
		if g.Op == OpInput || !seen {
			want = len(gates)
		} else {
			shared++
		}
		if got := c.push(g); got != want {
			t.Fatalf("push #%d %+v = %d, model says %d (%d gates spilled)", len(gates), g, got, want, c.spilled)
		}
		if want == len(gates) {
			gates = append(gates, g)
			if g.Op != OpInput {
				model[g] = want
			}
		}
		if c.Size() != len(gates) {
			t.Fatalf("size %d, model %d", c.Size(), len(gates))
		}
		if w := max(g.A, g.B, g.C); w >= 0 && chainLen(c, w) > chainCap {
			t.Fatalf("push #%d %+v: wire %d anchors a chain of %d gates, cap %d", len(gates), g, w, chainLen(c, w), chainCap)
		}
	}

	if len(data) > 0 {
		c.Grow([]int{0, 1, 40, 5000}[data[0]%4])
		data = data[1:]
	}
	push(Gate{Op: OpInput, A: -1, B: -1, C: -1})
	binOps := []Op{OpAdd, OpSub, OpMul, OpMod, OpAnd, OpOr, OpXor, OpEq, OpLt}
	for ; len(data) >= 6; data = data[6:] {
		n := len(gates)
		a := int32((int(data[1])<<8 | int(data[2])) % n)
		b := int32((int(data[3])<<8 | int(data[4])) % n)
		k := data[5]
		switch op := data[0] % 16; op {
		case 0:
			push(Gate{Op: OpInput, A: -1, B: -1, C: -1})
		case 1, 2:
			push(Gate{Op: OpConst, A: -1, B: -1, C: -1, K: int64(int8(k))})
		case 3:
			c.ReleaseHashTable()
		case 4:
			c.Grow(int(k))
		case 5:
			push(Gate{Op: OpNot, A: a, B: -1, C: -1})
		case 6:
			push(Gate{Op: OpMux, A: a, B: b, C: int32(int(k) % n)})
		default:
			push(Gate{Op: binOps[int(op)%len(binOps)], A: a, B: b, C: -1})
		}
	}

	// Every gate ever built is still found, at its own id.
	for id, g := range gates {
		if c.gates[id] != g {
			t.Fatalf("gate %d is %+v, model %+v", id, c.gates[id], g)
		}
		if g.Op != OpInput {
			push(g)
		}
	}
	checkIndex(t, c)
	return shared
}

// chainLen is the length of wire w's anchor chain.
func chainLen(c *Circuit, w int32) int {
	n := 0
	for e := c.links[w].head; e != 0; e = c.links[e-1].next {
		n++
	}
	return n
}

// checkIndex holds c's hash-consing index, rebuilt first if c has none,
// to its invariants: every chain holds at most chainCap gates, each
// anchored at the chain's wire; every spilled gate is one without
// operands or with a full chain, and lookup finds it at its own id; the
// spill table's load is at most one half; and every computation gate and
// constant is found, at its own id or at an equal gate's lower one.
func checkIndex(t *testing.T, c *Circuit) {
	t.Helper()
	if len(c.links) != len(c.gates) {
		c.reindex()
	}
	for w := range c.gates {
		n := 0
		for e := c.links[w].head; e != 0; e = c.links[e-1].next {
			if g := c.gates[e-1]; max(g.A, g.B, g.C) != int32(w) {
				t.Fatalf("gate %d %+v is on the chain of wire %d", e-1, g, w)
			}
			n++
		}
		if n > chainCap {
			t.Fatalf("wire %d anchors a chain of %d gates, cap %d", w, n, chainCap)
		}
	}
	spilled := 0
	for _, e := range c.spill {
		if e == 0 {
			continue
		}
		spilled++
		g := c.gates[e-1]
		if w := max(g.A, g.B, g.C); w >= 0 && chainLen(c, w) < chainCap {
			t.Fatalf("gate %d %+v spilled while wire %d's chain has room", e-1, g, w)
		}
		if found, _ := c.lookup(g); found != e-1 {
			t.Fatalf("spilled gate %d %+v: lookup finds %d", e-1, g, found)
		}
	}
	if spilled != c.spilled || 2*spilled > len(c.spill) {
		t.Fatalf("%d gates in a spill table of %d slots that counts %d", spilled, len(c.spill), c.spilled)
	}
	for id, g := range c.gates {
		if g.Op == OpInput {
			continue
		}
		if found, _ := c.lookup(g); found < 0 || found > int32(id) || c.gates[found] != g {
			t.Fatalf("gate %d %+v: lookup finds %d", id, g, found)
		}
	}
}

// checkRewritingInvariants runs the same program through the public
// methods of a rewriting builder, where a call may return an operand, a
// constant or another gate than the one named, and checks what has to
// hold of the circuit whatever was rewritten: no two computation gates
// or constants are equal, every operand precedes its gate, every depth
// is what its operands' depths make it, the index keeps every chain to
// chainCap (checkIndex), and no gate is left that the rewrite table
// would itself rewrite away (a constant-only gate, x op x, a double
// complement).
func checkRewritingInvariants(t *testing.T, data []byte) {
	t.Helper()
	c := NewRewriting()
	if len(data) > 0 {
		c.Grow([]int{0, 1, 40, 5000}[data[0]%4])
		data = data[1:]
	}
	c.Input()
	for ; len(data) >= 6; data = data[6:] {
		n := c.Size()
		a := (int(data[1])<<8 | int(data[2])) % n
		b := (int(data[3])<<8 | int(data[4])) % n
		k := data[5]
		switch op := data[0] % 16; op {
		case 0:
			c.Input()
		case 1, 2:
			c.Const(int64(int8(k)))
		case 3:
			c.ReleaseHashTable()
		case 4:
			c.Grow(int(k))
		case 5:
			c.Not(a)
		case 6:
			c.Mux(int(k)%n, a, b)
		default:
			c.bin([]Op{OpAdd, OpSub, OpMul, OpMod, OpAnd, OpOr, OpXor, OpEq, OpLt}[int(op)%9], a, b)
		}
	}
	checkIndex(t, c)

	seen := make(map[Gate]int, c.Size())
	var maxDep int32
	for id, g := range c.gates {
		if g.Op != OpInput {
			if first, dup := seen[g]; dup {
				t.Fatalf("gates %d and %d are both %+v", first, id, g)
			}
			seen[g] = id
		}
		var d int32
		consts, operands := 0, 0
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= int32(id) {
				t.Fatalf("gate %d %+v reads wire %d", id, g, op)
			}
			if op >= 0 {
				operands++
				d = max(d, c.depth[op])
				if c.gates[op].Op == OpConst {
					consts++
				}
			}
		}
		if g.Op != OpInput && g.Op != OpConst {
			d++
			if g.Op != OpMux && consts == operands {
				t.Fatalf("gate %d %+v has only constant operands: it should have been folded", id, g)
			}
			if g.A == g.B && g.Op != OpAdd && g.Op != OpMul && g.Op != OpMod {
				t.Fatalf("gate %d %+v has equal operands: the table has a rule for it", id, g)
			}
			if g.Op == OpNot && c.gates[g.A].Op == OpNot {
				t.Fatalf("gate %d is a double complement", id)
			}
		}
		if c.depth[id] != d {
			t.Fatalf("gate %d %+v: depth %d, operands make it %d", id, g, c.depth[id], d)
		}
		maxDep = max(maxDep, d)
	}
	if c.maxDep != maxDep {
		t.Fatalf("depth %d, the gates make it %d", c.Depth(), maxDep)
	}
}

// TestHashConsAgainstModel drives a few thousand pushes from a narrow
// operand range, so a good share of them are repeats and the chains of
// the first 64 wires fill up and spill. The same programs then go
// through the rewriting builder.
func TestHashConsAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+6*6000)
		rng.Read(data)
		data[0] = byte(seed)
		for i := 2; i < len(data); i += 6 {
			// Keep most operands among the first 64 wires: repeats.
			if rng.Intn(4) != 0 {
				data[i], data[i+2] = 0, 0
				data[i+1] %= 64
				data[i+3] %= 64
			}
		}
		shared := checkHashCons(t, data)
		if shared < 3000 {
			t.Fatalf("seed %d: only %d of ~9000 pushes hit an existing gate; the test has stopped exercising sharing", seed, shared)
		}
		checkRewritingInvariants(t, data)
	}
}

// FuzzHashCons hands checkHashCons, and the rewriting builder's
// checkRewritingInvariants, to the fuzzer: pushes against the model,
// anchor chains held to chainCap, every spilled gate found. The seeds
// (170 and 340 steps) run under every sizing hint.
func FuzzHashCons(f *testing.F) {
	for hint := byte(0); hint < 4; hint++ {
		for _, steps := range []int{170, 340} {
			rng := rand.New(rand.NewSource(int64(hint)*1000 + int64(steps)))
			data := make([]byte, 1+6*steps)
			rng.Read(data)
			data[0] = hint
			f.Add(data)
		}
	}
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		checkHashCons(t, data)
		checkRewritingInvariants(t, data)
	})
}

// TestHashConsFanOut is the index's worst case: one wire is the newest
// operand of 1<<16 distinct gates. Every push, and a second push of each
// gate, must answer what the map model answers; the wire's chain must
// stop at chainCap with the rest spilled; and the build must stay linear
// in the gate count. An uncapped chain makes it quadratic — every new
// gate compares against all the earlier ones, ~2^31 comparisons, 16 s
// on a 2-vCPU VM where the capped build takes tens of milliseconds — so
// a loose wall-clock bound tells the two apart.
func TestHashConsFanOut(t *testing.T) {
	const users = 1 << 16
	c := New()
	older := c.Inputs(users)
	x := int32(c.Input())
	ops := []Op{OpAdd, OpSub, OpMul, OpMod}
	model := map[Gate]int{}
	var pushes []Gate
	var want []int
	for round := 0; round < 2; round++ {
		for i := 0; i < users; i++ {
			g := Gate{Op: ops[i%len(ops)], A: int32(older[i]), B: x, C: -1}
			id, seen := model[g]
			if !seen {
				id = c.Size() + len(model)
				model[g] = id
			}
			pushes = append(pushes, g)
			want = append(want, id)
		}
	}

	got := make([]int, len(pushes))
	start := time.Now()
	for i, g := range pushes {
		got[i] = c.push(g)
	}
	elapsed := time.Since(start)
	t.Logf("%d pushes on a fan-out of %d: %v", len(pushes), users, elapsed)
	for i := range pushes {
		if got[i] != want[i] {
			t.Fatalf("push %d %+v = %d, model says %d", i, pushes[i], got[i], want[i])
		}
	}
	if n := chainLen(c, x); n != chainCap {
		t.Fatalf("the fan-out wire anchors a chain of %d gates, want the cap %d", n, chainCap)
	}
	if c.spilled != users-chainCap {
		t.Fatalf("%d gates spilled, want %d", c.spilled, users-chainCap)
	}
	checkIndex(t, c)
	if elapsed > 2*time.Second {
		t.Fatalf("%d pushes on one wire's fan-out took %v: the index is no longer linear in it", len(pushes), elapsed)
	}
}

// TestReadThenPushSharesOldGates is the lazy-rebuild regression test: a
// deserialized circuit has no hash-consing index, and the first push
// must rebuild it from the gate list so that an existing gate comes back
// under its old id instead of being appended again. Same after
// ReleaseHashTable.
func TestReadThenPushSharesOldGates(t *testing.T) {
	c := randomCircuit(5, 8, 2000)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseHashTable()
	for name, got := range map[string]*Circuit{"read": loaded, "released": c} {
		if got.links != nil || got.spill != nil {
			t.Fatalf("%s: circuit still carries an index (%d links, %d spill slots)", name, len(got.links), len(got.spill))
		}
		size := got.Size()
		for id, g := range got.gates {
			if g.Op == OpInput {
				continue
			}
			if again := got.push(g); again != id {
				t.Fatalf("%s: re-pushing gate %d %+v returned %d", name, id, g, again)
			}
		}
		if got.Size() != size {
			t.Fatalf("%s: re-pushing existing gates grew the circuit %d -> %d", name, size, got.Size())
		}
		if fresh := got.Sub(got.Size()-1, 0); fresh != size {
			t.Fatalf("%s: a new gate got id %d, want %d", name, fresh, size)
		}
	}
}

// TestGateCountLimit: a circuit that would outgrow int32 operands fails
// with a typed budget error — as a panic out of push, as an error from
// anything behind guard.Recover — instead of wrapping ids around.
func TestGateCountLimit(t *testing.T) {
	grow := func() (err error) {
		defer guard.Recover(&err)
		New().Grow(maxGates + 1)
		return nil
	}
	if err := grow(); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("got %v, want guard.ErrBudgetExceeded", err)
	}
}

func TestPrune(t *testing.T) {
	c := randomCircuit(11, 6, 3000)
	dead := c.Mul(c.Size()-1, c.Size()-2) // built after the outputs were marked
	p, err := c.Prune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() >= c.Size() || p.NumInputs() != c.NumInputs() || len(p.Outputs()) != len(c.Outputs()) {
		t.Fatalf("pruned %d gates/%d inputs/%d outputs from %d/%d/%d (gate %d is dead)",
			p.Size(), p.NumInputs(), len(p.Outputs()), c.Size(), c.NumInputs(), len(c.Outputs()), dead)
	}
	if p.links != nil || p.spill != nil {
		t.Fatal("pruned circuit carries a hash-consing index")
	}

	// Only inputs and the output cone survive, in order, with the depths
	// a fresh build of the same gates would give them.
	used := make([]bool, p.Size())
	for _, o := range p.Outputs() {
		used[o] = true
	}
	rebuilt := New()
	for i := p.Size() - 1; i >= 0; i-- {
		g := p.gates[i]
		if !used[i] && g.Op != OpInput {
			t.Fatalf("gate %d %+v survived outside the output cone", i, g)
		}
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= int32(i) {
				t.Fatalf("gate %d reads wire %d", i, op)
			}
			if op >= 0 {
				used[op] = true
			}
		}
	}
	for i, g := range p.gates {
		if id := rebuilt.push(g); id != i {
			t.Fatalf("gate %d %+v duplicates gate %d", i, g, id)
		}
		if g.Op == OpInput {
			rebuilt.inputs = append(rebuilt.inputs, i)
		}
		if rebuilt.depth[i] != p.depth[i] {
			t.Fatalf("gate %d: depth %d, a fresh build gives %d", i, p.depth[i], rebuilt.depth[i])
		}
	}
	if rebuilt.Depth() != p.Depth() {
		t.Fatalf("depth %d, a fresh build gives %d", p.Depth(), rebuilt.Depth())
	}
	for i, id := range p.InputIDs() {
		if rebuilt.inputs[i] != id {
			t.Fatalf("input %d is wire %d, want %d", i, id, rebuilt.inputs[i])
		}
	}

	rng := rand.New(rand.NewSource(3))
	in := make([]int64, c.NumInputs())
	for trial := 0; trial < 5; trial++ {
		for i := range in {
			in[i] = rng.Int63n(200) - 100
		}
		want, err := c.EvaluateCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.EvaluateCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d output %d: pruned %d, original %d", trial, i, got[i], want[i])
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Prune(ctx); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled Prune: got %v, want guard.ErrCanceled", err)
	}
}
