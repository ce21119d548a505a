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
	// table is the hash-consing index: an open-addressed, linearly probed
	// array of gate id + 1 (0 is an empty slot) whose length is a power of
	// two at least twice the gate count. It stores no keys — a probe
	// compares against gates[id] — so it costs 4 bytes a slot. A nil or
	// too-small table (a fresh, deserialized or released circuit) is
	// rebuilt from the gate list by the next push; see reserve.
	table  []int32
	shift  uint8 // 64 - log2(len(table)): a hash's top bits pick the slot
	maxDep int32
	// rewrite routes every computation gate through emit (rewrite.go)
	// before it is pushed. Set only by NewRewriting.
	rewrite bool
}

// maxGates is the largest gate count a circuit can hold: operands are
// int32 wire ids.
const maxGates = math.MaxInt32

// minReserve is the smallest gate count reserve sizes for, so tiny
// circuits do not rebuild their table every few gates.
const minReserve = 32

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

// Grow reserves room for n more gates — gate storage and the
// hash-consing table — so a builder that knows roughly how large the
// circuit will get allocates once instead of doubling its way there. A
// hint that turns out too small costs nothing but the doublings it did
// not save.
func (c *Circuit) Grow(n int) {
	if total := len(c.gates) + n; n > 0 && 2*total > len(c.table) {
		c.reserve(total)
	}
}

// ReleaseHashTable drops the hash-consing table. A finished circuit is
// only ever evaluated or serialized, and the table is a third of what a
// cached plan would otherwise pin; the circuit stays valid, and the next
// push rebuilds the table from the gate list, exactly as after Read.
func (c *Circuit) ReleaseHashTable() { c.table = nil }

// reserve makes room for total gates: capacity in gates and depth, and a
// table at load factor at most one half, filled by re-inserting every
// non-input gate from the gate list. Doubling, the sizing hint and the
// lazy rebuild of a circuit without a table are all this one routine. A
// total that int32 operands could not address panics with a
// guard.ErrBudgetExceeded-class error, which the compile entry points
// return typed (guard.Recover).
func (c *Circuit) reserve(total int) {
	if total > maxGates {
		panic(fmt.Errorf("%w: boolcircuit: %d gates exceed the %d a circuit can address",
			guard.ErrBudgetExceeded, total, maxGates))
	}
	c.gates = slices.Grow(c.gates, total-len(c.gates))
	c.depth = slices.Grow(c.depth, total-len(c.depth))
	size := 2 * minReserve
	for size < 2*total {
		size <<= 1
	}
	c.table = make([]int32, size)
	c.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for id, g := range c.gates {
		if g.Op == OpInput {
			continue
		}
		// Gates of one builder are distinct, so no comparison is needed;
		// a deserialized circuit may repeat a gate, and then the lower id
		// sits first on the probe path and is the one push will share.
		slot := c.slotOf(g)
		for c.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		c.table[slot] = int32(id) + 1
	}
}

// slotOf returns the home slot of g in the current table.
func (c *Circuit) slotOf(g Gate) uint32 {
	h := (uint64(uint32(g.A)) | uint64(uint32(g.B))<<32) * 0x9e3779b97f4a7c15
	h ^= (uint64(uint32(g.C))<<8 | uint64(g.Op)) * 0xbf58476d1ce4e5b9
	h ^= uint64(g.K) * 0x94d049bb133111eb
	h ^= h >> 32
	return uint32((h * 0x9e3779b97f4a7c15) >> c.shift)
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
	if 2*(id+1) > len(c.table) {
		// Double, but never past what ids can address; at that limit
		// id+1 is what reserve refuses.
		c.reserve(max(min(2*id, maxGates), id+1, minReserve))
	}
	var slot uint32
	if g.Op != OpInput {
		mask := uint32(len(c.table) - 1)
		slot = c.slotOf(g)
		for e := c.table[slot]; e != 0; e = c.table[slot] {
			if c.gates[e-1] == g {
				return int(e - 1)
			}
			slot = (slot + 1) & mask
		}
		c.table[slot] = int32(id) + 1
	}
	c.gates = append(c.gates, g)
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
// without hashing anything — it carries no table (see ReleaseHashTable).
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
