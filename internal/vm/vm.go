// Package vm is the vectorized batch evaluator for word circuits: a
// compiler from boolcircuit gate DAGs into a flat structure-of-arrays
// instruction buffer, and an evaluator that runs B requests through the
// program in lock-step, one same-opcode run of instructions at a time.
//
// The paper's circuits are data independent — the gate sequence never
// depends on tuple values — so the per-gate decode work (operand
// lookup, opcode dispatch, bounds checks) is identical for every
// request and can be paid once per gate instead of once per gate per
// request. The compiler drops gates unreachable from the outputs, fuses
// the two shapes a sorting network's comparator lowers to (a
// lexicographic-compare step, four gates; a conditional swap, two) into
// one instruction each, lays the instructions out contiguously in level
// order (opcode and operand slot indices in parallel arrays, no Gate
// structs, no interface dispatch), and register-allocates wire values into reusable
// slots so the evaluator's arena slab (vals[slot*S+r], the S lanes of
// one value adjacent; S is 1 for a single request, else B rounded up to
// a multiple of 8) is sized by the maximum live width of the circuit,
// not its total size — the working set stays cache-resident where the
// interpreter streams the whole circuit. Comparison and mux gates are
// computed arithmetically per lane, keeping the evaluation oblivious at
// every stride: the instruction and memory-access sequence is a
// function of the program alone.
//
// Levels matter because gates within one level are independent: the
// compiler may lay a level out in any order (it sorts by opcode, and
// records where each same-opcode run ends), and slots freed by one
// level's readers are safely reused by the next.
package vm

import (
	"context"
	"fmt"
	"math"
	"sync"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

// Word is the value carried by one wire for one request: the 64-bit
// word of the Section 4.1 model.
type Word = int64

// vm opcodes: the compute subset of boolcircuit ops (inputs and
// constants are prefilled, not executed) and two fused forms Compile
// finds in the gate list, one instruction each for the two shapes a
// sorting network's comparator lowers to.
const (
	opNone uint8 = iota // not an instruction: a dead, input, constant or fused-away gate
	opAdd
	opSub
	opMul
	opMod
	opAnd
	opOr
	opXor
	opNot
	opEq
	opLt
	opMux
	// opLex is one step of a lexicographic compare,
	// dst = (a < b) | (a == b) & acc, the four gates
	// Or(Lt(a,b), And(Eq(a,b), acc)) in one.
	opLex
	// opSwap is a conditional swap, dst = c != 0 ? a : b and
	// dst2 = c != 0 ? b : a, the two gates Mux(c,a,b) and Mux(c,b,a).
	opSwap

	numOps = int(opSwap) + 1

	// opSwapHi marks, during Compile only, the MUX gate whose value is the
	// second destination of another gate's opSwap.
	opSwapHi = uint8(numOps)
)

// gateWeight is how many circuit gates one instruction of each opcode
// stands for: what an evaluation budget is charged.
var gateWeight = [numOps]int32{
	opAdd: 1, opSub: 1, opMul: 1, opMod: 1, opAnd: 1, opOr: 1, opXor: 1,
	opNot: 1, opEq: 1, opLt: 1, opMux: 1, opLex: 4, opSwap: 2,
}

// pollStep is the longest run in the run table, in instructions, and the
// most gates that run between context/budget checkpoints unless a single
// run of fused instructions stands for more. Word gates are
// nanosecond-scale; finer polling would dominate the work, coarser
// would make deadlines and budget trips sloppy within wide levels.
const pollStep = 512

type constInit struct {
	slot int32
	k    Word
}

// Program is a compiled word circuit in executable form: one
// structure-of-arrays instruction buffer (ops/dst/dst2/a/b/c in
// parallel, contiguous per level), the run table over it, the constant
// and input prefill templates, and an arena pool for wire-value slabs. A
// Program is immutable after Compile and safe for concurrent EvalBatch
// calls.
//
// Operands are SLOTS, not circuit wire ids: the compiler drops gates
// unreachable from any output, then runs a liveness pass that reuses a
// wire's value slot once its last reader's level has run. The slab is
// therefore sized by the maximum number of simultaneously live wires,
// not the circuit size — the difference between a cache-resident
// working set and streaming the whole circuit through memory once per
// instruction. Slots are recycled only at level boundaries: a slot
// freed by level L's readers is reused no earlier than level L+1, so
// instructions within a level never alias.
type Program struct {
	ops      []uint8
	dst      []int32
	dst2     []int32 // opSwap's second destination, -1 elsewhere
	a, b, c  []int32
	levelEnd []int32 // ops[levelEnd[l-1]:levelEnd[l]] is level l+1
	runEnd   []int32 // ops[runEnd[k-1]:runEnd[k]] is one opcode, inside one level, at most pollStep long
	runGates []int32 // circuit gates computed once run k has finished (gateWeight, cumulative)

	numGates     int // inputs plus live gates: the size of the circuit's output cone, for reporting and budgets
	numSlots     int // slab width: max simultaneously live wires
	swaps, lexes int // fused instructions of each kind

	inputSlots []int32 // slot per circuit input, -1 when the input is dead
	outSlots   []int32
	consts     []constInit

	slabs sync.Pool // *[]Word arenas, reused across evaluations
}

// Compile lowers a finished boolcircuit into a Program. The gate walk
// polls ctx and charges the gates the program stands for — the inputs
// and the output cone, which is the size of the swept circuit
// (boolcircuit.Prune) — against any guard.Budget the context carries.
// Dead gates cost a Program nothing, so a circuit with gates nothing
// reads compiles to the same Program as its sweep: a plan compile builds
// it from the folded circuit while the sweep runs (core). The compile
// runs under an obs vm-compile span counting the program's gates,
// instructions, levels and fused instructions.
//
// Four passes over flat per-gate arrays: (1) count each wire's live
// readers backwards from the outputs — the interpreter pays for every
// gate ever built, the vm only for those with a reader; (2) going
// forward, decide what instruction each live gate becomes — itself, the
// root of a fused lexicographic step, half of a fused swap, or nothing —
// its level in the DAG of those instructions, and every wire's last
// reader; (3) bucket the instructions by level, in ascending id so
// operands always resolve to earlier levels; (4) lay each level out in
// opcode runs and assign value slots by liveness, freeing a wire's slot
// at the level boundary after its last reader.
func Compile(ctx context.Context, c *boolcircuit.Circuit) (_ *Program, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageVMComp)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	p, err := compile(ctx, c)
	if err == nil {
		sp.AddInt(obs.CounterGates, int64(p.numGates))
		sp.AddInt(obs.CounterInstructions, int64(len(p.ops)))
		sp.AddInt(obs.CounterLevels, int64(len(p.levelEnd)))
		sp.AddInt(obs.CounterFusedSwap, int64(p.swaps))
		sp.AddInt(obs.CounterFusedLex, int64(p.lexes))
	}
	return p, err
}

// compile is Compile without its span.
func compile(ctx context.Context, c *boolcircuit.Circuit) (*Program, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: vm: nil circuit", guard.ErrInvalidInput)
	}
	n := c.Size()
	p := &Program{}
	outs := c.Outputs()
	wk := getWork(n)
	defer work.Put(wk)

	// Pass 1: uses[w] counts the live gates reading wire w, an output mark
	// counting as one more reader, and stops at two: zero is a dead gate,
	// one a gate a peephole may fuse into its only reader, and a byte per
	// gate keeps the array the size of a reachability bitmap's. Operand ids
	// are smaller than the reader's, so one backward sweep settles it.
	uses := wk.uses
	use := func(w int32) {
		if w >= 0 && uses[w] < 2 {
			uses[w]++
		}
	}
	// The same sweep counts the live gates (inputs apart: every input
	// keeps its place), the live constants and the live ORs, which size
	// the tables below.
	for _, id := range outs {
		use(int32(id))
	}
	var live, liveConsts, liveOrs int
	for i := n - 1; i >= 0; i-- {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		if uses[i] != 0 {
			g := c.GateAt(i)
			switch g.Op {
			case boolcircuit.OpInput:
				continue
			case boolcircuit.OpConst:
				liveConsts++
			case boolcircuit.OpOr:
				liveOrs++
			}
			live++
			use(g.A)
			use(g.B)
			use(g.C)
		}
	}
	p.numGates = c.NumInputs() + live
	if err := guard.FromContext(ctx).CheckGates(ctx, p.numGates); err != nil {
		return nil, err
	}

	// Pass 2: kind[i] is the opcode gate i executes as, and level[i] its
	// level among the instructions: one more than the deepest of the wires
	// the instruction reads, which for a fused step are not the gate's own
	// operands. Two peepholes, O(1) per gate:
	//
	// An OR that lexStep recognizes becomes opLex and the three gates
	// under it, each read by nothing else, become nothing; they were
	// visited (and counted into their levels) before their root, so the
	// counts are taken back. The step then sits where its inputs allow,
	// up to two levels above where the OR sat.
	//
	// A MUX becomes the second destination of the previous MUX of its
	// level — previous in id order, which is the order a level is laid
	// out in — when that one selects between the same two wires on the
	// same condition the other way round. lastMux[d] is that previous MUX
	// of level d, as id+1, cleared once it has a partner.
	//
	// lastLevel[w] is the deepest level reading wire w, for the liveness
	// pass. A fused-away gate's vote is not taken back: its Lt and Eq sat
	// no deeper than the step that replaces them, and its And at most one
	// level deeper, so the worst case holds one slot one level too long.
	//
	// slotOf[i] will be wire i's value slot once pass 4 places it; until
	// then, for an opLex root, it indexes lexReads, the three wires the
	// step reads, so that pass 4 need not match the shape again.
	depth := c.Depth()
	kind, level, lastLevel, slotOf := wk.kind, wk.level, wk.lastLevel, wk.slotOf
	lexReads := make([][3]int32, 0, liveOrs)
	consts := make([]int32, 0, liveConsts) // the live constant gates
	lastMux := make([]int32, depth+1)
	bucketEnd := make([]int32, depth+1) // entries of level d, then (prefix sum) where they end in byLevel
	for i := 0; i < n; i++ {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		if uses[i] == 0 {
			continue
		}
		g := c.GateAt(i)
		if g.Op == boolcircuit.OpInput {
			continue
		}
		if g.Op == boolcircuit.OpConst {
			consts = append(consts, int32(i))
			continue
		}
		op, ok := vmOp(g.Op)
		if !ok {
			return nil, fmt.Errorf("%w: vm: unsupported op %v at gate %d", guard.ErrInvalidInput, g.Op, i)
		}
		ra, rb, rc := g.A, g.B, g.C
		if op == opOr {
			if m, ok := lexStep(c, uses, g); ok {
				op, ra, rb, rc = opLex, m.a, m.b, m.acc
				for _, dead := range [3]int32{m.lt, m.and, m.eq} {
					kind[dead] = opNone
					bucketEnd[level[dead]]--
				}
				slotOf[i] = int32(len(lexReads))
				lexReads = append(lexReads, [3]int32{ra, rb, rc})
			}
		}
		d := level[ra]
		if rb >= 0 {
			d = max(d, level[rb])
		}
		if rc >= 0 {
			d = max(d, level[rc])
		}
		d++
		lastLevel[ra] = max(lastLevel[ra], d)
		if rb >= 0 {
			lastLevel[rb] = max(lastLevel[rb], d)
		}
		if rc >= 0 {
			lastLevel[rc] = max(lastLevel[rc], d)
		}
		if op == opMux {
			if j := lastMux[d] - 1; j >= 0 && crossedMux(c.GateAt(int(j)), g) {
				kind[j], op = opSwap, opSwapHi
				lastMux[d] = 0
				p.swaps++
			} else {
				lastMux[d] = int32(i) + 1
			}
		}
		kind[i], level[i] = op, d
		bucketEnd[d]++
	}
	// A fused-away gate may have sat deeper than any instruction does.
	for depth > 0 && bucketEnd[depth] == 0 {
		depth--
	}
	for d := 1; d <= depth; d++ {
		bucketEnd[d] += bucketEnd[d-1]
	}
	p.lexes = len(lexReads)
	entries := int(bucketEnd[depth])
	total := entries - p.swaps // a swap's second half is an entry, not an instruction
	// Outputs are pinned past every level so the final transpose can read
	// them.
	pinned := int32(depth + 1)
	for _, id := range outs {
		lastLevel[id] = pinned
	}

	// Pass 3: bucket the entries by level into one flat array (ascending
	// id within a level, since ids are visited in order). Gate ids are
	// NOT monotone in level — a later-built gate can sit at a shallower
	// level — so slot recycling must run in level order, not id order.
	wk.byLevel = resized(wk.byLevel, entries)
	byLevel := wk.byLevel
	fill := make([]int32, depth+1) // next free index of level d in byLevel
	copy(fill[1:], bucketEnd)
	for i, k := range kind {
		if k != opNone {
			d := level[i]
			byLevel[fill[d]] = int32(i)
			fill[d]++
		}
	}

	// The run table's length: each level's opcode runs, split every
	// pollStep instructions, counted before they are laid out so the
	// table is allocated once.
	runs := 0
	for d := 1; d <= depth; d++ {
		var cnt [numOps]int32
		for _, i32 := range byLevel[bucketEnd[d-1]:bucketEnd[d]] {
			if k := kind[i32]; k != opSwapHi {
				cnt[k]++
			}
		}
		for _, k := range cnt {
			runs += int((k + pollStep - 1) / pollStep)
		}
	}

	p.ops = make([]uint8, total)
	p.dst = make([]int32, total)
	p.dst2 = make([]int32, total)
	p.a = make([]int32, total)
	p.b = make([]int32, total)
	p.c = make([]int32, total)
	p.levelEnd = make([]int32, 0, depth)
	p.runEnd = make([]int32, 0, runs)
	p.runGates = make([]int32, 0, runs)
	p.inputSlots = make([]int32, 0, c.NumInputs())
	p.consts = make([]constInit, 0, len(consts))
	p.outSlots = make([]int32, 0, len(outs))

	// Pass 4: place instructions level by level and assign slots.
	// Expiry and the free list are chains of wires, linked through link
	// (pass 4 no longer needs level, so its array is reused): a wire last
	// read at level L-1 joins the chain expire[L] when its slot is
	// allocated, and the whole chain, newest first, goes on top of the
	// free list when level L begins, which the level-by-level executor
	// makes safe: a slot freed by level L-1's readers is rewritten no
	// earlier than level L. A freed wire's slot is slotOf[wire]; heads,
	// tails and links hold wire+1, 0 ending a chain.
	link := level
	expire, expireTail := make([]int32, depth+2), make([]int32, depth+2)
	var free int32
	var next int32
	alloc := func(w int32) int32 {
		var s int32
		if free != 0 {
			s = slotOf[free-1]
			free = link[free-1]
		} else {
			s = next
			next++
		}
		slotOf[w] = s
		if lu := lastLevel[w]; lu <= int32(depth) {
			if expire[lu+1] == 0 {
				expireTail[lu+1] = w + 1
			}
			link[w], expire[lu+1] = expire[lu+1], w+1
		}
		return s
	}

	// Level 0: inputs and constants. Every input keeps its positional
	// place in the request vector; a dead input gets slot -1 (validated
	// but never stored). Dead constants vanish entirely.
	for _, id := range c.InputIDs() {
		if uses[id] == 0 {
			p.inputSlots = append(p.inputSlots, -1)
			continue
		}
		p.inputSlots = append(p.inputSlots, alloc(int32(id)))
	}
	for _, id := range consts {
		p.consts = append(p.consts, constInit{slot: alloc(id), k: c.GateAt(int(id)).K})
	}

	// Within a level instructions are independent (their operands all
	// come from earlier levels), so any order is legal; each level is
	// laid out in opcode runs — a counting sort done in place, by
	// counting the level's opcodes first and then writing every
	// instruction straight to its final position — so the executor
	// dispatches once per run instead of once per instruction and hands
	// each run to a kernel in one call. The same counts give the run
	// table: where each opcode's run ends, split every pollStep
	// instructions so the executor can checkpoint between runs only, and
	// how many circuit gates are done by then. Slots are still allocated
	// in ascending gate id, which keeps the slot assignment independent
	// of the layout.
	var at, gates int32
	placed := 0
	for d := 1; d <= depth; d++ {
		if head := expire[d]; head != 0 {
			link[expireTail[d]-1], free = free, head
		}
		entries := byLevel[bucketEnd[d-1]:bucketEnd[d]]
		var cur [numOps]int32
		for _, i32 := range entries {
			if k := kind[i32]; k != opSwapHi {
				cur[k]++
			}
		}
		for op, cnt := range cur {
			cur[op] = at
			for end := at + cnt; at < end; {
				run := min(pollStep, end-at)
				at += run
				gates += run * gateWeight[op]
				p.runEnd = append(p.runEnd, at)
				p.runGates = append(p.runGates, gates)
			}
		}
		p.levelEnd = append(p.levelEnd, at)
		var swapAt int32 // where the level's last opSwap went; its second half follows before the next one
		for _, i32 := range entries {
			if placed&0xfff == 0 {
				if err := guard.Poll(ctx); err != nil {
					return nil, err
				}
			}
			placed++
			k := kind[i32]
			if k == opSwapHi {
				p.dst2[swapAt] = alloc(i32)
				continue
			}
			j := cur[k]
			cur[k]++
			p.ops[j] = k
			// Operand slots resolve BEFORE the dst allocation: a dst may
			// legally reuse a slot freed at this very boundary, but never
			// one of its own operands' (those are live through this level
			// by definition of lastLevel).
			g := c.GateAt(int(i32))
			ra, rb, rc := g.A, g.B, g.C
			if k == opLex {
				r := lexReads[slotOf[i32]]
				ra, rb, rc = r[0], r[1], r[2]
			}
			p.a[j] = slotOf[ra]
			p.b[j], p.c[j] = -1, -1
			if rb >= 0 {
				p.b[j] = slotOf[rb]
			}
			if rc >= 0 {
				p.c[j] = slotOf[rc]
			}
			p.dst[j], p.dst2[j] = alloc(i32), -1
			if k == opSwap {
				swapAt = j
			}
		}
	}
	for _, id := range outs {
		p.outSlots = append(p.outSlots, slotOf[id])
	}
	p.numSlots = int(next)
	return p, nil
}

// compileWork is Compile's per-gate working arrays. They are pooled: a
// plan compile's are the size of the folded circuit, as large together
// as the program it keeps, and would otherwise be thrown away with every
// compile.
type compileWork struct {
	uses, kind                        []uint8
	level, lastLevel, slotOf, byLevel []int32
}

var work sync.Pool // *compileWork

// getWork returns pooled working arrays for a circuit of n gates, the
// per-gate ones zeroed.
func getWork(n int) *compileWork {
	w, _ := work.Get().(*compileWork)
	if w == nil {
		w = &compileWork{}
	}
	w.uses, w.kind = zeroed(w.uses, n), zeroed(w.kind, n)
	w.level, w.lastLevel, w.slotOf = zeroed(w.level, n), zeroed(w.lastLevel, n), zeroed(w.slotOf, n)
	return w
}

// resized returns s with n elements, reusing its array when it holds
// that many; the contents are unspecified.
func resized[T uint8 | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is resized with every element zero.
func zeroed[T uint8 | int32](s []T, n int) []T {
	s = resized(s, n)
	clear(s)
	return s
}

// lexMatch is one lexicographic-compare step found in the gate list:
// Or(lt, and) with lt = Lt(a,b), and = And(eq, acc), eq = Eq over a and b.
type lexMatch struct {
	a, b, acc   int32 // what the fused instruction reads
	lt, and, eq int32 // the gates it makes unnecessary
}

// lexStep reports whether g, an OR gate, computes
// (a < b) | (a == b) & acc through three gates nothing else needs: an Lt
// and an And as its operands in either order, the And over acc and an Eq
// in either order, the Eq over the Lt's two wires in either order, and
// each of the three with exactly one live reader, which an output mark
// would add to. uses is Compile's reader count. The fused form is exact
// for any acc word, not only 0/1: both sides keep acc's bit 0 where a == b.
func lexStep(c *boolcircuit.Circuit, uses []uint8, g boolcircuit.Gate) (lexMatch, bool) {
	if uses[g.A] != 1 || uses[g.B] != 1 {
		return lexMatch{}, false
	}
	lt, and := g.A, g.B
	if c.GateAt(int(lt)).Op != boolcircuit.OpLt {
		lt, and = and, lt
	}
	gl, ga := c.GateAt(int(lt)), c.GateAt(int(and))
	if gl.Op != boolcircuit.OpLt || ga.Op != boolcircuit.OpAnd {
		return lexMatch{}, false
	}
	for _, ea := range [2][2]int32{{ga.A, ga.B}, {ga.B, ga.A}} {
		eq, acc := ea[0], ea[1]
		ge := c.GateAt(int(eq))
		samePair := ge.A == gl.A && ge.B == gl.B || ge.A == gl.B && ge.B == gl.A
		if ge.Op == boolcircuit.OpEq && uses[eq] == 1 && samePair {
			return lexMatch{a: gl.A, b: gl.B, acc: acc, lt: lt, and: and, eq: eq}, true
		}
	}
	return lexMatch{}, false
}

// crossedMux reports whether two MUX gates select between the same two
// wires on the same condition, each taking what the other leaves. Reading
// the same three wires, they sit on the same level.
func crossedMux(lo, hi boolcircuit.Gate) bool {
	return lo.C == hi.C && lo.A == hi.B && lo.B == hi.A
}

// vmOp maps a circuit compute op to its instruction opcode.
func vmOp(op boolcircuit.Op) (uint8, bool) {
	switch op {
	case boolcircuit.OpAdd:
		return opAdd, true
	case boolcircuit.OpSub:
		return opSub, true
	case boolcircuit.OpMul:
		return opMul, true
	case boolcircuit.OpMod:
		return opMod, true
	case boolcircuit.OpAnd:
		return opAnd, true
	case boolcircuit.OpOr:
		return opOr, true
	case boolcircuit.OpXor:
		return opXor, true
	case boolcircuit.OpNot:
		return opNot, true
	case boolcircuit.OpEq:
		return opEq, true
	case boolcircuit.OpLt:
		return opLt, true
	case boolcircuit.OpMux:
		return opMux, true
	}
	return 0, false
}

// Gates returns the wires the program stands for: the source circuit's
// inputs and the gates its outputs depend on, constants included — the
// size (|V|) of the circuit with its dead gates swept, which Compile
// charges against a budget and an evaluation's span reports.
func (p *Program) Gates() int { return p.numGates }

// Slots returns the slab width per lane: the maximum number of
// simultaneously live wires after the liveness pass.
func (p *Program) Slots() int { return p.numSlots }

// Instructions returns the number of instructions executed per lane:
// the live compute gates, less three for every fused lexicographic step
// and one for every fused swap.
func (p *Program) Instructions() int { return len(p.ops) }

// Fused returns how many instructions are conditional swaps (two MUX
// gates each) and how many are lexicographic-compare steps (four gates
// each).
func (p *Program) Fused() (swaps, lexes int) { return p.swaps, p.lexes }

// Levels returns the number of instruction levels: the depth of the
// circuit with every fused step counted as one gate.
func (p *Program) Levels() int { return len(p.levelEnd) }

// Runs returns the number of same-opcode runs the executor dispatches:
// the levels' opcode runs, split where longer than pollStep.
func (p *Program) Runs() int { return len(p.runEnd) }

// NumInputs returns the per-request input width.
func (p *Program) NumInputs() int { return len(p.inputSlots) }

// NumOutputs returns the per-request output width.
func (p *Program) NumOutputs() int { return len(p.outSlots) }

// EvalBatch runs every input vector through the program in lock-step
// and returns one output vector per request, positionally. An empty
// batch returns an empty result. Each inputs[r] must have exactly
// NumInputs values.
//
// The executor walks the compile-time run table: one kernel call per
// same-opcode run, no scan for run boundaries. It polls ctx and charges
// the circuit gates completed — a fused instruction counts as the gates
// it stands for — against any guard.Budget on ctx (MaxGates) whenever the
// next run would put more than pollStep gates past the last checkpoint:
// runs are never longer than pollStep instructions, and short runs
// accumulate across levels up to that many gates, so cancellation,
// deadlines, and budget exhaustion cut the evaluation short even inside
// one wide level. When ctx carries a
// faultinject.Injector, every instruction reports to the word-gate site
// and runs as a run of one (the slow path; the fast path pays nothing).
// The whole batch runs under one obs vm-eval span carrying gates and
// batch_size counters — one span per batch, never per request.
func (p *Program) EvalBatch(ctx context.Context, inputs [][]Word) (_ [][]Word, err error) {
	B := len(inputs)
	ctx, sp := obs.StartSpan(ctx, obs.StageVMEval)
	defer func() {
		sp.AddInt(obs.CounterGates, int64(p.numGates))
		sp.AddInt(obs.CounterBatchSize, int64(B))
		sp.SetError(err)
		sp.End()
	}()
	if err := guard.Poll(ctx); err != nil {
		return nil, err
	}
	if B == 0 {
		return [][]Word{}, nil
	}
	for r, in := range inputs {
		if len(in) != len(p.inputSlots) {
			return nil, fmt.Errorf("%w: vm: request %d has %d inputs, want %d",
				guard.ErrInvalidInput, r, len(in), len(p.inputSlots))
		}
	}

	// Lane stride: one word per slot for a single request — its values
	// then fit in L1 and no instruction streams padding — else B rounded
	// up to a multiple of 8 so the vector kernels never need tail code.
	// Padding lanes carry garbage through every (total) operation and are
	// never read back.
	S := 1
	if B > 1 {
		S = (B + 7) &^ 7
	}
	words := p.numSlots * S
	if words > math.MaxInt32 { // stridedRun scales slot indices in int32
		return nil, fmt.Errorf("%w: vm: batch of %d over %d slots exceeds the slab index range",
			guard.ErrInvalidInput, B, p.numSlots)
	}
	slab := p.getSlab(words)
	defer p.slabs.Put(slab)
	vals := (*slab)[:words]

	// Prefill: constants splat across lanes, inputs transpose from
	// request-major to slot-major (padding lanes zeroed — the slab is
	// pooled, so they would otherwise carry stale values into the mod
	// paths of a *previous* batch's shape). Dead inputs (slot -1) are
	// validated above but never stored.
	for _, ci := range p.consts {
		lane := vals[int(ci.slot)*S:][:S]
		for l := range lane {
			lane[l] = ci.k
		}
	}
	for idx, s := range p.inputSlots {
		if s < 0 {
			continue
		}
		lane := vals[int(s)*S:][:S]
		for r := 0; r < B; r++ {
			lane[r] = inputs[r][idx]
		}
		for r := B; r < S; r++ {
			lane[r] = 0
		}
	}

	bud := guard.FromContext(ctx)
	inj := faultinject.FromContext(ctx)

	// Walk the run table: one kernel call per run, and a checkpoint
	// whenever the next run would put more than pollStep gates past the
	// last one. done and polled count circuit gates, not instructions.
	lo, done, polled := 0, 0, 0
	for k, e := range p.runEnd {
		hi, after := int(e), int(p.runGates[k])
		if after-polled > pollStep {
			if err := p.checkpoint(ctx, bud, done); err != nil {
				return nil, err
			}
			polled = done
		}
		if inj == nil {
			p.execRun(vals, S, lo, hi)
		} else if err := p.execFaulty(inj, vals, S, lo, hi); err != nil {
			return nil, err
		}
		lo, done = hi, after
	}
	if err := p.checkpoint(ctx, bud, done); err != nil {
		return nil, err
	}

	// Transpose outputs back to request-major before the slab returns
	// to the pool.
	ow := len(p.outSlots)
	flat := make([]Word, ow*B)
	out := make([][]Word, B)
	for r := 0; r < B; r++ {
		out[r] = flat[r*ow : (r+1)*ow : (r+1)*ow]
	}
	for oi, s := range p.outSlots {
		lane := vals[int(s)*S:][:B]
		for r := range lane {
			out[r][oi] = lane[r]
		}
	}
	return out, nil
}

// Options and EvalBatchOpts are a shim for the frozen benchmark module,
// which calls EvalBatchOpts(ctx, inputs, Options{Workers: 1}). Workers
// is ignored: it used to split wide levels across goroutines, which no
// compiled query was wide enough to benefit from.
type Options struct{ Workers int }

// EvalBatchOpts is EvalBatch; the options select nothing.
func (p *Program) EvalBatchOpts(ctx context.Context, inputs [][]Word, _ Options) ([][]Word, error) {
	return p.EvalBatch(ctx, inputs)
}

// checkpoint polls ctx and charges the circuit gates completed so far
// against the budget's gate cap.
func (p *Program) checkpoint(ctx context.Context, bud *guard.Budget, done int) error {
	if err := bud.CheckGates(ctx, done); err != nil {
		return fmt.Errorf("vm: after %d gates: %w", done, err)
	}
	return nil
}

// getSlab returns a pooled arena of at least n words. Every slab is
// sized for a stride of 8 or more, so a program served alternately at a
// batch of one and at small batches keeps reusing one arena (a stride-1
// evaluation touches only its first numSlots words).
func (p *Program) getSlab(n int) *[]Word {
	if s, ok := p.slabs.Get().(*[]Word); ok && cap(*s) >= n {
		return s
	}
	s := make([]Word, max(n, 8*p.numSlots))
	return &s
}

// execFaulty is execRun with a fault-injection hit before every
// instruction, so the engine's fault matrices see the same word-gate
// site the interpreted evaluator reports to.
func (p *Program) execFaulty(inj *faultinject.Injector, vals []Word, S, lo, hi int) error {
	for ii := lo; ii < hi; ii++ {
		if err := inj.Hit(faultinject.SiteWordGate); err != nil {
			return fmt.Errorf("vm: instr %d: %w", ii, err)
		}
		p.execRun(vals, S, ii, ii+1)
	}
	return nil
}

// execRun runs instructions [lo,hi), all one opcode and independent of
// one another, over all S lanes: the scalar kernel directly at a stride
// of one, a vector kernel where the platform has one for the opcode,
// the scalar kernel lane by lane otherwise.
func (p *Program) execRun(vals []Word, S, lo, hi int) {
	op := p.ops[lo]
	dst, dst2, a, b, c := p.dst[lo:hi], p.dst2[lo:hi], p.a[lo:hi], p.b[lo:hi], p.c[lo:hi]
	if S == 1 {
		scalarRun(vals, op, dst, dst2, a, b, c)
	} else if !vecRun(vals, S, op, dst, dst2, a, b, c) {
		stridedRun(vals, S, op, dst, dst2, a, b, c)
	}
}

// stridedRun is the portable path at a stride above one, and the
// multiply/modulus path everywhere: it scales the run's slot indices by
// the stride once, then runs the scalar kernel on each lane's view of
// the slab (lane l of slot s is vals[l:][s*S]). Lanes may go one after
// the other because no instruction of a level reads a slot another
// writes. A run is at most pollStep long.
func stridedRun(vals []Word, S int, op uint8, dst, dst2, a, b, c []int32) {
	var sd, sd2, sa, sb, sc [pollStep]int32
	n, s32 := len(dst), int32(S)
	for i := range dst {
		sd[i], sd2[i], sa[i], sb[i], sc[i] = dst[i]*s32, dst2[i]*s32, a[i]*s32, b[i]*s32, c[i]*s32
	}
	for l := 0; l < S; l++ {
		scalarRun(vals[l:], op, sd[:n], sd2[:n], sa[:n], sb[:n], sc[:n])
	}
}

// scalarRun is the one plain-Go kernel: vals[dst[i]] = vals[a[i]] op
// vals[b[i]] for every instruction of a run. Comparisons, mux and the
// two fused forms are computed arithmetically (0/1 words, an all-ones or
// all-zero select mask), so no branch or address depends on a wire value
// (modulus alone tests its divisor and the remainder's sign). Indexing
// through uint32 keeps the bounds check — a negative slot is a huge one
// — and lets the index load fold into one instruction. b, c and dst2
// hold -1 where the opcode has no such operand and are not read there.
func scalarRun(vals []Word, op uint8, dst, dst2, a, b, c []int32) {
	dst2, a, b, c = dst2[:len(dst)], a[:len(dst)], b[:len(dst)], c[:len(dst)]
	switch op {
	case opAdd:
		for i, d := range dst {
			vals[uint32(d)] = vals[uint32(a[i])] + vals[uint32(b[i])]
		}
	case opSub:
		for i, d := range dst {
			vals[uint32(d)] = vals[uint32(a[i])] - vals[uint32(b[i])]
		}
	case opMul:
		for i, d := range dst {
			vals[uint32(d)] = vals[uint32(a[i])] * vals[uint32(b[i])]
		}
	case opMod:
		for i, d := range dst {
			vals[uint32(d)] = wordMod(vals[uint32(a[i])], vals[uint32(b[i])])
		}
	case opAnd:
		for i, d := range dst {
			vals[uint32(d)] = vals[uint32(a[i])] & vals[uint32(b[i])]
		}
	case opOr:
		for i, d := range dst {
			vals[uint32(d)] = vals[uint32(a[i])] | vals[uint32(b[i])]
		}
	case opXor:
		for i, d := range dst {
			vals[uint32(d)] = vals[uint32(a[i])] ^ vals[uint32(b[i])]
		}
	case opNot:
		for i, d := range dst {
			vals[uint32(d)] = ^vals[uint32(a[i])]
		}
	case opEq:
		for i, d := range dst {
			vals[uint32(d)] = b2w(vals[uint32(a[i])] == vals[uint32(b[i])])
		}
	case opLt:
		for i, d := range dst {
			vals[uint32(d)] = b2w(vals[uint32(a[i])] < vals[uint32(b[i])])
		}
	case opMux:
		for i, d := range dst {
			m := -b2w(vals[uint32(c[i])] != 0) // 0 or all-ones
			vals[uint32(d)] = vals[uint32(a[i])]&m | vals[uint32(b[i])]&^m
		}
	case opLex:
		for i, d := range dst {
			x, y := vals[uint32(a[i])], vals[uint32(b[i])]
			vals[uint32(d)] = b2w(x < y) | b2w(x == y)&vals[uint32(c[i])]
		}
	case opSwap:
		for i, d := range dst {
			x, y := vals[uint32(a[i])], vals[uint32(b[i])]
			t := (x ^ y) & -b2w(vals[uint32(c[i])] != 0) // x^y where the swap is taken, else 0
			vals[uint32(d)] = y ^ t
			vals[uint32(dst2[i])] = x ^ t
		}
	}
}

// wordMod is the circuit's modulus: a non-negative result, and zero for
// a zero divisor.
func wordMod(a, b Word) Word {
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

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}
