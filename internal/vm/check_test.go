package vm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// check reports the first way p breaks what its kernels rely on, or nil.
// The vector kernels index the slab without bounds checks, and the
// stride-1 ones gather and scatter a run's blocks of 8 in one go, so a
// program is only safe to run if:
//   - every slot an opcode dereferences is in [0, numSlots): a always, b
//     for every opcode but NOT, c for MUX, LEX and SWAP, dst, and dst2 for
//     SWAP; an operand the opcode has not is -1. Input slots are -1 (a
//     dead input) or in range, and so are output and constant slots;
//   - the run and level ends rise strictly, end at the end of the
//     instruction array, and every level end is a run end; a run is one
//     opcode and at most pollStep instructions;
//   - within a run, the destinations (dst, and dst2 for SWAP) are pairwise
//     distinct and none is an operand of the run.
func (p *Program) check() error {
	n := len(p.ops)
	for _, f := range []struct {
		name string
		s    []int32
	}{{"dst", p.dst}, {"dst2", p.dst2}, {"a", p.a}, {"b", p.b}, {"c", p.c}} {
		if len(f.s) != n {
			return fmt.Errorf("%s has %d entries for %d instructions", f.name, len(f.s), n)
		}
	}
	inRange := func(s int32) bool { return s >= 0 && int(s) < p.numSlots }
	for i, s := range p.inputSlots {
		if s != -1 && !inRange(s) {
			return fmt.Errorf("input %d: slot %d", i, s)
		}
	}
	for i, s := range p.outSlots {
		if !inRange(s) {
			return fmt.Errorf("output %d: slot %d", i, s)
		}
	}
	for _, ci := range p.consts {
		if !inRange(ci.slot) {
			return fmt.Errorf("constant %d: slot %d", ci.k, ci.slot)
		}
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
	if len(p.runGates) != len(p.runEnd) {
		return fmt.Errorf("%d run gate counts for %d runs", len(p.runGates), len(p.runEnd))
	}

	// mark[s] is k+1 once slot s is a destination of run k.
	mark := make([]int32, p.numSlots)
	level, lo := 0, int32(0)
	for k, hi := range p.runEnd {
		for level < len(p.levelEnd) && p.levelEnd[level] < hi {
			if p.levelEnd[level] > lo {
				return fmt.Errorf("level end %d falls inside run %d [%d,%d)", p.levelEnd[level], k, lo, hi)
			}
			level++
		}
		op := p.ops[lo]
		if op == opNone || int(op) >= numOps {
			return fmt.Errorf("run %d: opcode %d", k, op)
		}
		if hi-lo > pollStep {
			return fmt.Errorf("run %d is %d instructions long", k, hi-lo)
		}
		hasB, hasC, hasDst2 := op != opNot, op == opMux || op == opLex || op == opSwap, op == opSwap
		written := int32(k + 1)
		for i := lo; i < hi; i++ {
			if p.ops[i] != op {
				return fmt.Errorf("run %d mixes opcodes %d and %d", k, op, p.ops[i])
			}
			for j, d := range [2]int32{p.dst[i], p.dst2[i]} {
				if j == 1 && !hasDst2 {
					if d != -1 {
						return fmt.Errorf("instruction %d (opcode %d) has second destination %d", i, op, d)
					}
					continue
				}
				if !inRange(d) {
					return fmt.Errorf("instruction %d (opcode %d): destination slot %d", i, op, d)
				}
				if mark[d] == written {
					return fmt.Errorf("run %d: slot %d is written twice", k, d)
				}
				mark[d] = written
			}
		}
		for i := lo; i < hi; i++ {
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
				case mark[o.s] == written:
					return fmt.Errorf("run %d: instruction %d reads slot %d, which the run writes", k, i, o.s)
				}
			}
		}
		lo = hi
	}
	return nil
}

// TestProgramCheckRefuses holds check to what it promises: a compiled
// program passes, and each single corruption of one is refused.
func TestProgramCheckRefuses(t *testing.T) {
	build := func() *Program {
		p, err := Compile(context.Background(), randomCircuit(rand.New(rand.NewSource(3)), 4, 300))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.check(); err != nil {
			t.Fatalf("a compiled program fails the check: %v", err)
		}
		return p
	}
	// firstOf returns an instruction of opcode op.
	firstOf := func(p *Program, op uint8) int {
		for i, o := range p.ops {
			if o == op {
				return i
			}
		}
		t.Fatalf("the program has no instruction of opcode %d", op)
		return -1
	}
	for _, tc := range []struct {
		name    string
		corrupt func(p *Program)
	}{
		{"operand past the slab", func(p *Program) { p.a[0] = int32(p.numSlots) }},
		{"negative destination", func(p *Program) { p.dst[len(p.dst)-1] = -5 }},
		{"swap's second destination past the slab", func(p *Program) { p.dst2[firstOf(p, opSwap)] = int32(p.numSlots) }},
		{"swap writes one slot twice", func(p *Program) { i := firstOf(p, opSwap); p.dst2[i] = p.dst[i] }},
		{"a run reads what it writes", func(p *Program) { i := firstOf(p, opMux); p.c[i] = p.dst[i] }},
		{"a stray third operand", func(p *Program) { p.c[firstOf(p, opAdd)] = 0 }},
		{"a stray second destination", func(p *Program) { p.dst2[firstOf(p, opLex)] = 0 }},
		{"output past the slab", func(p *Program) { p.outSlots[0] = int32(p.numSlots) }},
		{"run ends out of order", func(p *Program) { p.runEnd[0], p.runEnd[1] = p.runEnd[1], p.runEnd[0] }},
		{"level ends short of the buffer", func(p *Program) { p.levelEnd = p.levelEnd[:len(p.levelEnd)-1] }},
	} {
		p := build()
		tc.corrupt(p)
		if err := p.check(); err == nil {
			t.Errorf("%s: the check accepts it", tc.name)
		}
	}
}
