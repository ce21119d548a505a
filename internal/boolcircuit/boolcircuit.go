// Package boolcircuit implements the word-level oblivious circuits of
// Section 4.1. The paper explicitly declines to distinguish Boolean from
// arithmetic circuits (each wire may carry an O(log u)-bit value and each
// gate any standard operation, since only polylog factors separate the
// models); accordingly, a gate here operates on 64-bit words and counts
// as one unit of size, and circuit depth is the longest input-to-output
// path in gates.
//
// Circuits are built once from the query and the degree constraints —
// never from data — and then evaluated on any conforming instance. The
// builder performs structural hashing (identical gates are shared), which
// only shrinks size and depth.
//
// There are two builders over one gate store. New is the paper's: every
// call appends the gate it names (or shares the identical one), so the
// constructions of Section 5 come out verbatim. NewRewriting is the
// optimizer: before a gate is pushed it goes through the rewrite table of
// rewrite.go — constant folding with the evaluator's exact semantics,
// algebraic identities, commutative normalization, constant-chain
// collapse — so Add, Mux and the rest may return an existing wire, a
// constant or a differently shaped gate that carries the same value on
// every input vector. A rewrite reads only a gate's own operands, which
// are final when the gate is built, so a circuit built this way is
// already what re-optimizing it would produce (DESIGN.md, "Circuit
// optimizer"); the gates the rewrites left unused are swept by Prune.
// Rewriting is a property of the builder, not of the circuit: Prune's
// copy, Read's result and New never rewrite, and the flag is not
// serialized.
package boolcircuit

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

// Op enumerates gate operations.
type Op uint8

// Gate operations. Comparisons yield 0 or 1. Bitwise operations act on
// the full word; booleans are represented as 0/1 words. OpMod matches
// package expr: non-negative result, x mod 0 = 0.
const (
	OpInput Op = iota
	OpConst
	OpAdd
	OpSub
	OpMul
	OpMod
	OpAnd
	OpOr
	OpXor
	OpNot // bitwise complement
	OpEq
	OpLt  // signed less-than
	OpMux // C != 0 ? A : B
)

var opNames = [...]string{
	OpInput: "input", OpConst: "const", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNot: "not", OpEq: "eq", OpLt: "lt", OpMux: "mux",
}

// String returns the operation name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Gate is one circuit node; A, B, C are operand gate ids (unused
// operands are -1), K is the constant for OpConst.
type Gate struct {
	Op      Op
	A, B, C int32
	K       int64
}

// Circuit is a gate DAG under construction and the evaluable artifact.
// Inputs are allocated with Input and fed positionally to Evaluate.
type Circuit struct {
	gates   []Gate
	depth   []int32
	inputs  []int // gate ids of inputs in allocation order
	outputs []int
	// links, spill and spilled are the hash-consing index, keyed by each
	// gate's anchor: its newest operand, max(A, B, C). Operands are almost
	// always recent gates, so a lookup touches recently used memory (see
	// DESIGN.md, "Hash-consing by newest operand"). links[w].head is id+1
	// of the newest gate anchored at wire w and links[id].next the id+1 of
	// the gate anchored at the same wire before gate id; 0 ends a chain. A
	// chain holds at most chainCap gates. A gate whose anchor's chain is
	// full, and a constant, which has no operand to anchor on, is filed in
	// spill instead: an open-addressed, linearly probed table of id+1 at
	// load at most one half, holding spilled of them. links has one entry
	// per gate while the index is live; a circuit without one (fresh from
	// Read or Prune, or released) has it empty, and the next push rebuilds
	// it (see reindex).
	links   []link
	spill   []int32
	spilled int
	maxDep  int32
	// rewrite routes every computation gate through emit (rewrite.go)
	// before it is pushed. Set only by NewRewriting.
	rewrite bool
}

// link is one gate's pair of anchor-chain pointers.
type link struct{ head, next int32 }

// chainCap bounds an anchor chain, so a wire that is the newest operand
// of many distinct gates costs a lookup at most chainCap comparisons and
// one spill probe, not a walk over all of them.
const chainCap = 32

// maxGates is the largest gate count a circuit can hold: operands are
// int32 wire ids.
const maxGates = math.MaxInt32

// New returns an empty circuit whose builder emits exactly the gates it
// is asked for.
func New() *Circuit {
	return &Circuit{}
}

// NewRewriting returns an empty circuit whose builder is the word-level
// optimizer: Add … Lt, Not and Mux return a wire carrying the value of
// the gate asked for, after the rewrites of emit, and build a gate only
// when none applies. Input, Const and MarkOutput behave as with New.
func NewRewriting() *Circuit {
	return &Circuit{rewrite: true}
}

// Grow reserves room for n more gates — gate storage, depths and the
// index's links — so a builder that knows roughly how large the circuit
// will get allocates once instead of growing by append. The index never
// rehashes as it grows (only the small spill table doubles), so a hint
// that turns out too small costs nothing but the regrowth copies it did
// not save. A total that int32 operands could not address panics as
// checkCount does.
func (c *Circuit) Grow(n int) {
	if n <= 0 {
		return
	}
	total := len(c.gates) + n
	checkCount(total)
	c.gates = slices.Grow(c.gates, n)
	c.depth = slices.Grow(c.depth, n)
	c.links = slices.Grow(c.links, total-len(c.links))
}

// ReleaseHashTable drops the hash-consing index. A finished circuit is
// only ever evaluated or serialized, and the index is a fifth of what a
// cached plan would otherwise pin; the circuit stays valid, and the next
// push rebuilds the index from the gate list, exactly as after Read.
func (c *Circuit) ReleaseHashTable() { c.links, c.spill, c.spilled = nil, nil, 0 }

// reindex builds the index of a circuit that has none from its gate
// list. It scans ids in ascending order and files a gate only if no equal
// gate is indexed yet: the gates of one builder are distinct, but a
// deserialized circuit may repeat one, and then the lower id is the one
// push will share.
func (c *Circuit) reindex() {
	c.links = make([]link, len(c.gates), cap(c.gates))
	c.spill, c.spilled = nil, 0
	for id, g := range c.gates {
		if g.Op == OpInput {
			continue
		}
		if found, anchor := c.lookup(g); found < 0 {
			c.file(int32(id), anchor)
		}
	}
}

// lookup returns the id of the indexed gate equal to g, or -1 and where
// a new gate g is to be filed: the anchor wire whose chain has room for
// it, or -1 for the spill table. Only a full chain sends a lookup on to
// spill: chains never shrink, so a gate filed in spill was filed there
// because its chain was already full.
func (c *Circuit) lookup(g Gate) (found, anchor int32) {
	anchor = max(g.A, g.B, g.C)
	if anchor >= 0 {
		n := 0
		for e := c.links[anchor].head; e != 0; e = c.links[e-1].next {
			if c.gates[e-1] == g {
				return e - 1, anchor
			}
			n++
		}
		if n < chainCap {
			return -1, anchor
		}
	}
	if len(c.spill) > 0 {
		mask := uint64(len(c.spill) - 1)
		for slot := spillHash(g) & mask; c.spill[slot] != 0; slot = (slot + 1) & mask {
			if e := c.spill[slot]; c.gates[e-1] == g {
				return e - 1, -1
			}
		}
	}
	return -1, -1
}

// file indexes gate id, which lookup did not find, under anchor, or in
// the spill table when anchor is -1, doubling the table to keep its load
// at most one half.
func (c *Circuit) file(id, anchor int32) {
	if anchor >= 0 {
		c.links[id].next = c.links[anchor].head
		c.links[anchor].head = id + 1
		return
	}
	if 2*(c.spilled+1) > len(c.spill) {
		old := c.spill
		c.spill = make([]int32, max(2*len(old), 64))
		for _, e := range old {
			if e != 0 {
				c.spillAt(e)
			}
		}
	}
	c.spillAt(id + 1)
	c.spilled++
}

// spillAt puts entry e (a gate id + 1) in the first free slot of its
// probe path.
func (c *Circuit) spillAt(e int32) {
	mask := uint64(len(c.spill) - 1)
	slot := spillHash(c.gates[e-1]) & mask
	for c.spill[slot] != 0 {
		slot = (slot + 1) & mask
	}
	c.spill[slot] = e
}

// spillHash mixes every field of g; its low bits pick a spill slot.
func spillHash(g Gate) uint64 {
	h := (uint64(uint32(g.A)) | uint64(uint32(g.B))<<32) * 0x9e3779b97f4a7c15
	h ^= (uint64(uint32(g.C))<<8 | uint64(g.Op)) * 0xbf58476d1ce4e5b9
	h ^= uint64(g.K) * 0x94d049bb133111eb
	return bits.RotateLeft64((h^h>>32)*0x9e3779b97f4a7c15, 32)
}

// NumInputs returns the number of input wires allocated.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// Size returns the total gate count including inputs and constants (the
// paper's |V|).
func (c *Circuit) Size() int { return len(c.gates) }

// Depth returns the longest input-to-output path length in gates.
func (c *Circuit) Depth() int { return int(c.maxDep) }

// Outputs returns the marked output gate ids.
func (c *Circuit) Outputs() []int { return append([]int(nil), c.outputs...) }

// GateAt returns gate id (for inspection and lowering passes).
func (c *Circuit) GateAt(id int) Gate { return c.gates[id] }

// DepthOf returns the level of gate id: 0 for inputs and constants,
// 1 + max(operand depths) for computation gates. Gates of equal depth
// are independent, which is what the level-ordered batch compiler
// (internal/vm) relies on.
func (c *Circuit) DepthOf(id int) int { return int(c.depth[id]) }

// InputIDs returns the gate ids of the input wires in allocation order
// — the positional order Evaluate consumes its inputs in.
func (c *Circuit) InputIDs() []int { return append([]int(nil), c.inputs...) }

// MarkOutput designates wire w as a circuit output.
func (c *Circuit) MarkOutput(w int) {
	if w < 0 || w >= len(c.gates) {
		panic("boolcircuit: invalid output wire")
	}
	c.outputs = append(c.outputs, w)
}

// push appends g and returns its id, or returns the id of the identical
// gate already present (hash-consing). Input gates are never shared.
func (c *Circuit) push(g Gate) int {
	id := len(c.gates)
	if len(c.links) != id {
		c.reindex()
	}
	anchor := int32(-1)
	if g.Op != OpInput {
		var found int32
		if found, anchor = c.lookup(g); found >= 0 {
			return int(found)
		}
	}
	checkCount(id + 1)
	c.gates = append(c.gates, g)
	c.links = append(c.links, link{})
	if g.Op != OpInput {
		c.file(int32(id), anchor)
	}
	var d int32
	for _, op := range [3]int32{g.A, g.B, g.C} {
		if op >= 0 && c.depth[op] > d {
			d = c.depth[op]
		}
	}
	if g.Op != OpInput && g.Op != OpConst {
		d++
	}
	c.depth = append(c.depth, d)
	if d > c.maxDep {
		c.maxDep = d
	}
	return id
}

// checkCount panics with a guard.ErrBudgetExceeded-class error when total
// gates are more than int32 operands can address; the compile entry
// points return it typed (guard.Recover).
func checkCount(total int) {
	if total > maxGates {
		panic(fmt.Errorf("%w: boolcircuit: %d gates exceed the %d a circuit can address",
			guard.ErrBudgetExceeded, total, maxGates))
	}
}

// Input allocates a new input wire.
func (c *Circuit) Input() int {
	id := c.push(Gate{Op: OpInput, A: -1, B: -1, C: -1})
	c.inputs = append(c.inputs, id)
	return id
}

// Inputs allocates n input wires.
func (c *Circuit) Inputs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c.Input()
	}
	return out
}

// Const returns a wire carrying constant v (shared).
func (c *Circuit) Const(v int64) int {
	return c.push(Gate{Op: OpConst, A: -1, B: -1, C: -1, K: v})
}

func (c *Circuit) bin(op Op, a, b int) int {
	c.check(a)
	c.check(b)
	return c.gate(op, a, b, -1)
}

// gate builds one computation gate on checked operands (-1 where the
// operation has none): verbatim, or through the rewrite table when the
// builder is a rewriting one.
func (c *Circuit) gate(op Op, a, b, cond int) int {
	if c.rewrite {
		return c.emit(op, a, b, cond)
	}
	return c.push(Gate{Op: op, A: int32(a), B: int32(b), C: int32(cond)})
}

func (c *Circuit) check(w int) {
	if w < 0 || w >= len(c.gates) {
		panic(fmt.Sprintf("boolcircuit: invalid wire %d", w))
	}
}

// Add returns a + b.
func (c *Circuit) Add(a, b int) int { return c.bin(OpAdd, a, b) }

// Sub returns a - b.
func (c *Circuit) Sub(a, b int) int { return c.bin(OpSub, a, b) }

// Mul returns a * b.
func (c *Circuit) Mul(a, b int) int { return c.bin(OpMul, a, b) }

// ModC returns a mod b (non-negative; mod 0 = 0).
func (c *Circuit) ModC(a, b int) int { return c.bin(OpMod, a, b) }

// And returns the bitwise AND.
func (c *Circuit) And(a, b int) int { return c.bin(OpAnd, a, b) }

// Or returns the bitwise OR.
func (c *Circuit) Or(a, b int) int { return c.bin(OpOr, a, b) }

// Xor returns the bitwise XOR.
func (c *Circuit) Xor(a, b int) int { return c.bin(OpXor, a, b) }

// Not returns the bitwise complement.
func (c *Circuit) Not(a int) int {
	c.check(a)
	return c.gate(OpNot, a, -1, -1)
}

// Eq returns a == b as 0/1.
func (c *Circuit) Eq(a, b int) int { return c.bin(OpEq, a, b) }

// Lt returns a < b (signed) as 0/1.
func (c *Circuit) Lt(a, b int) int { return c.bin(OpLt, a, b) }

// Le returns a <= b as 0/1.
func (c *Circuit) Le(a, b int) int { return c.NotB(c.Lt(b, a)) }

// Gt returns a > b as 0/1.
func (c *Circuit) Gt(a, b int) int { return c.Lt(b, a) }

// Ge returns a >= b as 0/1.
func (c *Circuit) Ge(a, b int) int { return c.NotB(c.Lt(a, b)) }

// Ne returns a != b as 0/1.
func (c *Circuit) Ne(a, b int) int { return c.NotB(c.Eq(a, b)) }

// NotB returns logical negation of a 0/1 wire.
func (c *Circuit) NotB(a int) int { return c.Xor(a, c.Const(1)) }

// Bool returns a != 0 as 0/1.
func (c *Circuit) Bool(a int) int { return c.Ne(a, c.Const(0)) }

// Mux returns cond != 0 ? a : b.
func (c *Circuit) Mux(cond, a, b int) int {
	c.check(cond)
	c.check(a)
	c.check(b)
	return c.gate(OpMux, a, b, cond)
}

// OutputCone marks the gates the outputs depend on and counts them.
// Gates are in topological order, so one backward sweep suffices; it
// polls ctx every 4096 gates.
func (c *Circuit) OutputCone(ctx context.Context) (live []bool, count int, err error) {
	live = make([]bool, len(c.gates))
	for _, o := range c.outputs {
		live[o] = true
	}
	for i := len(c.gates) - 1; i >= 0; i-- {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, 0, err
			}
		}
		if !live[i] {
			continue
		}
		count++
		g := &c.gates[i]
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= 0 {
				live[op] = true
			}
		}
	}
	return live, count, nil
}

// Prune returns a copy of the circuit restricted to its input wires and
// its output cone, the survivors renumbered in order. Every input is
// kept, dead or not, because allocation order is the packing contract;
// outputs keep their marking order and every wire its depth. The
// renumbering is injective, so the copy is as hash-consed as c was
// without hashing anything — it carries no index (see ReleaseHashTable).
func (c *Circuit) Prune(ctx context.Context) (*Circuit, error) {
	live, count, err := c.OutputCone(ctx)
	if err != nil {
		return nil, err
	}
	nc := &Circuit{
		gates:   make([]Gate, 0, count+len(c.inputs)),
		depth:   make([]int32, 0, count+len(c.inputs)),
		inputs:  make([]int, 0, len(c.inputs)),
		outputs: make([]int, len(c.outputs)),
	}
	remap := make([]int32, len(c.gates)) // new id of every surviving gate
	for i, g := range c.gates {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		if g.Op == OpInput {
			nc.inputs = append(nc.inputs, len(nc.gates))
		} else if !live[i] {
			continue
		}
		remap[i] = int32(len(nc.gates))
		if g.A >= 0 {
			g.A = remap[g.A]
		}
		if g.B >= 0 {
			g.B = remap[g.B]
		}
		if g.C >= 0 {
			g.C = remap[g.C]
		}
		nc.gates = append(nc.gates, g)
		nc.depth = append(nc.depth, c.depth[i])
		nc.maxDep = max(nc.maxDep, c.depth[i])
	}
	for i, o := range c.outputs {
		nc.outputs[i] = int(remap[o])
	}
	return nc, nil
}

// EvaluateCtx runs the circuit on the given input values (positional,
// one per Input allocation) and returns the values of all marked outputs
// in marking order. Evaluation order is the fixed gate order — the access
// pattern is input independent by construction. The gate loop polls ctx
// every 4096 gates (word gates are nanosecond-scale; finer polling would
// dominate the work) and, when ctx carries a faultinject.Injector, each
// gate reports to the word-gate site. The pass runs under one obs
// boolcircuit-eval span counting gates evaluated — per evaluation, not
// per gate, so the untraced fast path costs one branch per call.
func (c *Circuit) EvaluateCtx(ctx context.Context, inputs []int64) (_ []int64, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageBoolEval)
	defer func() {
		sp.AddInt(obs.CounterGates, int64(len(c.gates)))
		sp.SetError(err)
		sp.End()
	}()
	if len(inputs) != len(c.inputs) {
		return nil, fmt.Errorf("boolcircuit: got %d inputs, want %d", len(inputs), len(c.inputs))
	}
	inj := faultinject.FromContext(ctx)
	vals := make([]int64, len(c.gates))
	next := 0
	for i, g := range c.gates {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		if inj != nil {
			if err := inj.Hit(faultinject.SiteWordGate); err != nil {
				return nil, fmt.Errorf("boolcircuit: gate %d: %w", i, err)
			}
		}
		switch g.Op {
		case OpInput:
			vals[i] = inputs[next]
			next++
		case OpConst:
			vals[i] = g.K
		case OpAdd:
			vals[i] = vals[g.A] + vals[g.B]
		case OpSub:
			vals[i] = vals[g.A] - vals[g.B]
		case OpMul:
			vals[i] = vals[g.A] * vals[g.B]
		case OpMod:
			vals[i] = mod(vals[g.A], vals[g.B])
		case OpAnd:
			vals[i] = vals[g.A] & vals[g.B]
		case OpOr:
			vals[i] = vals[g.A] | vals[g.B]
		case OpXor:
			vals[i] = vals[g.A] ^ vals[g.B]
		case OpNot:
			vals[i] = ^vals[g.A]
		case OpEq:
			vals[i] = b2i(vals[g.A] == vals[g.B])
		case OpLt:
			vals[i] = b2i(vals[g.A] < vals[g.B])
		case OpMux:
			if vals[g.C] != 0 {
				vals[i] = vals[g.A]
			} else {
				vals[i] = vals[g.B]
			}
		default:
			return nil, fmt.Errorf("boolcircuit: unknown op %v", g.Op)
		}
	}
	out := make([]int64, len(c.outputs))
	for i, w := range c.outputs {
		out[i] = vals[w]
	}
	return out, nil
}

// mod is OpMod: the non-negative remainder, and a mod 0 = 0.
func mod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	m := a % b
	if m < 0 {
		if b < 0 {
			m -= b
		} else {
			m += b
		}
	}
	return m
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Slot is a bundle of wires carrying one (possibly dummy) tuple: a 0/1
// validity wire (the paper's dummy attribute Z) plus one wire per column.
type Slot struct {
	Valid int
	Cols  []int
}

// CloneCols returns a copy of the slot with its column slice duplicated.
func (s Slot) CloneCols() Slot {
	return Slot{Valid: s.Valid, Cols: append([]int(nil), s.Cols...)}
}

// LevelSizes returns the number of computation gates (everything except
// inputs and constants) at each depth level 1..Depth(). Brent's theorem
// scheduling (package core) consumes this histogram.
func (c *Circuit) LevelSizes() []int {
	out := make([]int, c.maxDep)
	for i, g := range c.gates {
		if g.Op == OpInput || g.Op == OpConst {
			continue
		}
		out[c.depth[i]-1]++
	}
	return out
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	Gates  int
	Depth  int
	Inputs int
}

// StatsOf returns gate count, depth, and input count.
func (c *Circuit) StatsOf() Stats {
	return Stats{Gates: c.Size(), Depth: c.Depth(), Inputs: c.NumInputs()}
}
