package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The program encoding, the body of a stored plan: plain varints, in
// this order:
//
//	numSlots
//	instruction count, then per instruction its opcode byte, dst and a,
//	  then b for every opcode but NOT, c for MUX, LEX and SWAP, and dst2
//	  for SWAP
//	level count, each level end
//	run count, each run end
//	input count, each input slot (signed: -1 is a dead input)
//	output count, each output slot
//	constant count, each constant's slot and value (signed)
//
// What the decoder can recompute is not stored — the gates each run
// completes, the fused-instruction counts and the gate count — so a file
// cannot disagree with itself about them.

// Append appends p's encoding to b and returns the extended slice.
func (p *Program) Append(b []byte) []byte {
	u := func(v int32) { b = binary.AppendUvarint(b, uint64(v)) }
	b = binary.AppendUvarint(b, uint64(p.numSlots))
	b = binary.AppendUvarint(b, uint64(len(p.ops)))
	for i, op := range p.ops {
		b = append(b, op)
		u(p.dst[i])
		u(p.a[i])
		hasB, hasC, hasDst2 := operands(op)
		if hasB {
			u(p.b[i])
		}
		if hasC {
			u(p.c[i])
		}
		if hasDst2 {
			u(p.dst2[i])
		}
	}
	for _, ends := range [][]int32{p.levelEnd, p.runEnd} {
		b = binary.AppendUvarint(b, uint64(len(ends)))
		for _, e := range ends {
			u(e)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(p.inputSlots)))
	for _, s := range p.inputSlots {
		b = binary.AppendVarint(b, int64(s))
	}
	b = binary.AppendUvarint(b, uint64(len(p.outSlots)))
	for _, s := range p.outSlots {
		u(s)
	}
	b = binary.AppendUvarint(b, uint64(len(p.consts)))
	for _, ci := range p.consts {
		u(ci.slot)
		b = binary.AppendVarint(b, ci.k)
	}
	return b
}

// DecodeProgram decodes a program Append encoded, which must be all of
// data, and validates it: a program that decodes but could make the
// evaluator read or write outside its slab, or read a slot before
// anything wrote it, is refused. It never panics on adversarial bytes,
// and nothing it allocates is larger than a small multiple of data.
func DecodeProgram(data []byte) (*Program, error) {
	d := &decoder{b: data}
	p := &Program{numSlots: int(d.int32())}
	n := d.count(3) // an opcode, a dst and an a
	p.ops = make([]uint8, n)
	p.dst, p.dst2 = make([]int32, n), make([]int32, n)
	p.a, p.b, p.c = make([]int32, n), make([]int32, n), make([]int32, n)
	d.instructions(p)
	p.levelEnd = d.int32s()
	p.runEnd = d.int32s()
	p.inputSlots = make([]int32, d.count(1))
	for i := range p.inputSlots {
		if s := d.varint(); s >= -1 && s <= math.MaxInt32 {
			p.inputSlots[i] = int32(s)
		} else {
			d.fail(fmt.Errorf("input %d: slot %d", i, s))
		}
	}
	p.outSlots = d.int32s()
	p.consts = make([]constInit, d.count(2))
	for i := range p.consts {
		p.consts[i] = constInit{slot: d.int32(), k: d.varint()}
	}
	if d.err == nil && d.off < len(d.b) {
		d.fail(fmt.Errorf("%d bytes past the program", len(d.b)-d.off))
	}
	if d.err != nil {
		return nil, fmt.Errorf("vm: program encoding: %w", d.err)
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("vm: invalid program: %w", err)
	}
	// What the encoding leaves out: the gates done once each run has
	// finished, the fused counts, and the wires the program stands for —
	// its inputs, its constants and the gates its instructions compute.
	p.runGates = make([]int32, len(p.runEnd))
	var lo, gates int32
	for k, hi := range p.runEnd {
		gates += (hi - lo) * gateWeight[p.ops[lo]]
		p.runGates[k] = gates
		lo = hi
	}
	for _, op := range p.ops {
		switch op {
		case opSwap:
			p.swaps++
		case opLex:
			p.lexes++
		}
	}
	p.numGates = len(p.inputSlots) + len(p.consts) + int(gates)
	return p, nil
}

// instructions reads the instruction array, which is most of a program's
// encoding, into p's arrays, sized already.
func (d *decoder) instructions(p *Program) {
	var v [5]int32 // dst, a, then b, c and dst2 as the opcode has them
	for i := range p.ops {
		op := d.byte() // an unknown one is validate's to refuse
		hasB, hasC, hasDst2 := operands(op)
		m := 2 + b2i(hasB) + b2i(hasC) + b2i(hasDst2)
		v[2], v[3], v[4] = -1, -1, -1
		// Slots below 2^14 — every slot of a program of up to 16 384 —
		// take one or two bytes and are read here; longer values and the
		// end of the data take the general path.
		buf, off := d.b, d.off
		for j := 0; j < m; j++ {
			if off+1 < len(buf) && buf[off] < 0x80 {
				v[j] = int32(buf[off])
				off++
			} else if off+1 < len(buf) && buf[off+1] < 0x80 {
				v[j] = int32(buf[off]&0x7f) | int32(buf[off+1])<<7
				off += 2
			} else {
				d.off = off
				v[j] = d.int32()
				off = d.off
			}
		}
		d.off = off
		if d.err != nil {
			return
		}
		// What an opcode has of b, c and dst2 is a prefix of the three.
		p.ops[i], p.dst[i], p.a[i], p.b[i], p.c[i], p.dst2[i] = op, v[0], v[1], v[2], v[3], v[4]
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// operands reports which of b, c and dst2 an opcode has; every opcode
// has dst and a.
func operands(op uint8) (hasB, hasC, hasDst2 bool) {
	return op != opNot, op == opMux || op == opLex || op == opSwap, op == opSwap
}

// validate reports the first way p breaks what the evaluator relies on,
// or nil. The vector kernels index the slab without bounds checks, the
// stride-1 ones gather and scatter a run's blocks of 8 in one go, and
// the slab is pooled, so that a slot read before this evaluation wrote
// it holds another request's value. A program is only safe to run if:
//   - its slot count is at most the slot writes it makes (its live
//     inputs, its constants, its instructions and their second
//     destinations), which bounds what the check and the slab allocate;
//   - every slot an opcode dereferences is in [0, numSlots): a always, b
//     for every opcode but NOT, c for MUX, LEX and SWAP, dst, and dst2 for
//     SWAP; an operand the opcode has not is -1. Input slots are -1 (a
//     dead input) or in range, and so are output and constant slots;
//   - the run and level ends rise strictly, end at the end of the
//     instruction array, and every level end is a run end; a run is one
//     opcode and at most pollStep instructions;
//   - within a level, the destinations are pairwise distinct, and every
//     operand slot was filled before the level began — an input or
//     constant slot, prefilled before evaluation, or a slot an earlier
//     level wrote — and is not one the level writes; every output slot is
//     filled by the end.
func (p *Program) validate() error {
	n := len(p.ops) // the operand and destination arrays are as long
	writes := len(p.consts) + n
	for _, s := range p.inputSlots {
		if s != -1 {
			writes++
		}
	}
	for _, op := range p.ops {
		if op == opSwap {
			writes++
		}
	}
	if p.numSlots < 0 || p.numSlots > writes {
		return fmt.Errorf("%d slots for %d slot writes", p.numSlots, writes)
	}
	inRange := func(s int32) bool { return s >= 0 && int(s) < p.numSlots }

	// filled[s] is 1 once slot s is prefilled, l+2 once level l writes it.
	filled := make([]int32, p.numSlots)
	for i, s := range p.inputSlots {
		if s == -1 {
			continue
		}
		if !inRange(s) {
			return fmt.Errorf("input %d: slot %d", i, s)
		}
		filled[s] = 1
	}
	for _, ci := range p.consts {
		if !inRange(ci.slot) {
			return fmt.Errorf("constant %d: slot %d", ci.k, ci.slot)
		}
		filled[ci.slot] = 1
	}
	for _, f := range []struct {
		name string
		ends []int32
	}{{"levelEnd", p.levelEnd}, {"runEnd", p.runEnd}} {
		prev := int32(0)
		for k, e := range f.ends {
			if e <= prev || int(e) > n {
				return fmt.Errorf("%s[%d] = %d after %d, over %d instructions", f.name, k, e, prev, n)
			}
			prev = e
		}
		if int(prev) != n {
			return fmt.Errorf("%s ends at %d of %d instructions", f.name, prev, n)
		}
	}

	lo := int32(0)
	for k, hi := range p.runEnd {
		if hi-lo > pollStep {
			return fmt.Errorf("run %d is %d instructions long", k, hi-lo)
		}
		op := p.ops[lo]
		if op == opNone || int(op) >= numOps {
			return fmt.Errorf("run %d: opcode %d", k, op)
		}
		for i := lo; i < hi; i++ {
			if p.ops[i] != op {
				return fmt.Errorf("run %d mixes opcodes %d and %d", k, op, p.ops[i])
			}
		}
		lo = hi
	}
	k := 0
	for _, e := range p.levelEnd {
		for p.runEnd[k] < e {
			k++
		}
		if p.runEnd[k] != e {
			return fmt.Errorf("level end %d falls inside run %d", e, k)
		}
	}

	lo = 0
	for l, hi := range p.levelEnd {
		tag := int32(l + 2)
		for i := lo; i < hi; i++ {
			op := p.ops[i]
			_, _, hasDst2 := operands(op)
			for j, d := range [2]int32{p.dst[i], p.dst2[i]} {
				switch {
				case j == 1 && !hasDst2 && d != -1:
					return fmt.Errorf("instruction %d (opcode %d) has second destination %d", i, op, d)
				case j == 1 && !hasDst2:
				case !inRange(d):
					return fmt.Errorf("instruction %d (opcode %d): destination slot %d", i, op, d)
				case filled[d] == tag:
					return fmt.Errorf("level %d writes slot %d twice", l, d)
				default:
					filled[d] = tag
				}
			}
		}
		for i := lo; i < hi; i++ {
			op := p.ops[i]
			hasB, hasC, _ := operands(op)
			for _, o := range [3]struct {
				s    int32
				used bool
			}{{p.a[i], true}, {p.b[i], hasB}, {p.c[i], hasC}} {
				switch {
				case !o.used && o.s != -1:
					return fmt.Errorf("instruction %d (opcode %d) names slot %d for an operand it has not", i, op, o.s)
				case !o.used:
				case !inRange(o.s):
					return fmt.Errorf("instruction %d (opcode %d): operand slot %d", i, op, o.s)
				case filled[o.s] == 0:
					return fmt.Errorf("level %d: instruction %d reads slot %d before anything writes it", l, i, o.s)
				case filled[o.s] == tag:
					return fmt.Errorf("level %d: instruction %d reads slot %d, which the level writes", l, i, o.s)
				}
			}
		}
		lo = hi
	}
	for i, s := range p.outSlots {
		if !inRange(s) {
			return fmt.Errorf("output %d: slot %d", i, s)
		}
		if filled[s] == 0 {
			return fmt.Errorf("output %d: slot %d is never written", i, s)
		}
	}
	return nil
}

// decoder reads varints off b from off, keeping the first error; after
// one, every read returns zero.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.b)
}

func (d *decoder) byte() uint8 {
	if d.off >= len(d.b) {
		d.fail(errors.New("truncated"))
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	d.off += n
	return v
}

// int32 reads a non-negative value that must fit an int32.
func (d *decoder) int32() int32 {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail(fmt.Errorf("value %d out of range", v))
		return 0
	}
	return int32(v)
}

// count reads a length whose elements take at least per bytes each, so
// a count the remaining bytes cannot hold fails before it is allocated.
func (d *decoder) count(per int) int {
	v := d.uvarint()
	if left := len(d.b) - d.off; v > uint64(left/per) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", v, left))
		return 0
	}
	return int(v)
}

// int32s reads a count and that many int32 values.
func (d *decoder) int32s() []int32 {
	s := make([]int32, d.count(1))
	for i := range s {
		s[i] = d.int32()
	}
	return s
}
