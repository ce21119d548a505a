package vm

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"circuitql/internal/boolcircuit"
)

// TestProgramCheckRefuses holds validate to what it promises: a compiled
// program passes, and each single corruption of one is refused.
func TestProgramCheckRefuses(t *testing.T) {
	build := func() *Program {
		p, err := Compile(context.Background(), randomCircuit(rand.New(rand.NewSource(3)), 4, 300))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.validate(); err != nil {
			t.Fatalf("a compiled program fails validation: %v", err)
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
	// lateSlot returns a slot that no input or constant fills and the
	// first level does not write: one a later level writes first.
	lateSlot := func(p *Program) int32 {
		early := make([]bool, p.numSlots)
		for _, s := range p.inputSlots {
			if s >= 0 {
				early[s] = true
			}
		}
		for _, ci := range p.consts {
			early[ci.slot] = true
		}
		for i := int32(0); i < p.levelEnd[0]; i++ {
			early[p.dst[i]] = true
			if p.dst2[i] >= 0 {
				early[p.dst2[i]] = true
			}
		}
		for s, e := range early {
			if !e {
				return int32(s)
			}
		}
		t.Fatal("every slot is filled by the end of the first level")
		return -1
	}
	// binary reports whether op reads a and b and nothing else.
	binary := func(op uint8) bool {
		hasB, hasC, _ := operands(op)
		return hasB && !hasC
	}
	// runOf returns a run of at least two instructions of a binary opcode.
	runOf := func(p *Program) (lo, hi int32) {
		for k, e := range p.runEnd {
			if k > 0 {
				lo = p.runEnd[k-1]
			}
			if e-lo >= 2 && binary(p.ops[lo]) {
				return lo, e
			}
		}
		t.Fatal("the program has no binary run of two instructions")
		return 0, 0
	}
	// rewriteOverwritten makes one instruction write the slot another of
	// its level writes, where its own slot was filled before the level, so
	// what later levels read there is stale but written.
	rewriteOverwritten := func(p *Program) {
		seen := make([]bool, p.numSlots)
		for _, s := range p.inputSlots {
			if s >= 0 {
				seen[s] = true
			}
		}
		for _, ci := range p.consts {
			seen[ci.slot] = true
		}
		lo := int32(0)
		for _, hi := range p.levelEnd {
			for i := lo; i < hi && hi-lo >= 2; i++ {
				if seen[p.dst[i]] {
					j := lo + (i-lo+1)%(hi-lo)
					p.dst[i] = p.dst[j]
					return
				}
			}
			for i := lo; i < hi; i++ {
				seen[p.dst[i]] = true
				if p.dst2[i] >= 0 {
					seen[p.dst2[i]] = true
				}
			}
			lo = hi
		}
		t.Fatal("no level rewrites a slot filled before it")
	}
	// writes is what the slot count may be at most.
	writes := func(p *Program) int {
		n := len(p.consts) + len(p.ops)
		for _, s := range p.inputSlots {
			if s >= 0 {
				n++
			}
		}
		for _, op := range p.ops {
			if op == opSwap {
				n++
			}
		}
		return n
	}
	// wide is a program whose one level of 600 additions runs as two runs,
	// of pollStep and of the rest.
	wide := func() *Program {
		c := boolcircuit.New()
		in := c.Inputs(1)[0]
		for i := 0; i < 600; i++ {
			c.MarkOutput(c.Add(in, c.Const(int64(i))))
		}
		p, err := Compile(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.runEnd) != 2 || p.runEnd[0] != pollStep {
			t.Fatalf("600 additions run as %v", p.runEnd)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		corrupt func(p *Program)
		wide    bool
	}{
		{"operand past the slab", func(p *Program) { p.a[0] = int32(p.numSlots) }, false},
		{"negative destination", func(p *Program) { p.dst[len(p.dst)-1] = -5 }, false},
		{"swap's second destination past the slab", func(p *Program) { p.dst2[firstOf(p, opSwap)] = int32(p.numSlots) }, false},
		{"swap writes one slot twice", func(p *Program) { i := firstOf(p, opSwap); p.dst2[i] = p.dst[i] }, false},
		{"a run reads what it writes", func(p *Program) { i := firstOf(p, opMux); p.c[i] = p.dst[i] }, false},
		{"a stray third operand", func(p *Program) { p.c[firstOf(p, opAdd)] = 0 }, false},
		{"a stray second destination", func(p *Program) { p.dst2[firstOf(p, opLex)] = 0 }, false},
		{"output past the slab", func(p *Program) { p.outSlots[0] = int32(p.numSlots) }, false},
		{"run ends out of order", func(p *Program) { p.runEnd[0], p.runEnd[1] = p.runEnd[1], p.runEnd[0] }, false},
		{"level ends short of the buffer", func(p *Program) { p.levelEnd = p.levelEnd[:len(p.levelEnd)-1] }, false},
		{"the first level reads a slot a later level writes", func(p *Program) { p.a[0] = lateSlot(p) }, false},
		{"an output slot nothing writes", func(p *Program) { p.outSlots[0] = int32(p.numSlots); p.numSlots++ }, false},
		{"more slots than slot writes", func(p *Program) { p.numSlots = writes(p) + 1 }, false},
		{"input past the slab", func(p *Program) { p.inputSlots[0] = int32(p.numSlots) }, false},
		{"constant past the slab", func(p *Program) { p.consts[0].slot = int32(p.numSlots) }, false},
		{"an empty run", func(p *Program) { p.runEnd = slices.Insert(p.runEnd, 0, p.runEnd[0]) }, false},
		{"a level end inside a run", func(p *Program) {
			_, hi := runOf(p)
			at, _ := slices.BinarySearch(p.levelEnd, hi-1)
			p.levelEnd = slices.Insert(p.levelEnd, at, hi-1)
		}, false},
		{"an unknown opcode", func(p *Program) {
			lo, hi := runOf(p)
			for i := lo; i < hi; i++ {
				p.ops[i] = uint8(numOps)
			}
		}, false},
		{"a run mixes opcodes", func(p *Program) {
			_, hi := runOf(p)
			if p.ops[hi-1] == opAnd {
				p.ops[hi-1] = opOr
			} else {
				p.ops[hi-1] = opAnd
			}
		}, false},
		{"a level writes one slot twice", rewriteOverwritten, false},
		{"a run longer than pollStep", func(p *Program) { p.runEnd = p.runEnd[1:] }, true},
	} {
		p := build()
		if tc.wide {
			p = wide()
		}
		tc.corrupt(p)
		if err := p.validate(); err == nil {
			t.Errorf("%s: validate accepts it", tc.name)
		}
	}
}
