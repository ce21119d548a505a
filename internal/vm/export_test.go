package vm

import (
	"fmt"
	"slices"
	"strings"
)

// The external tests (package vm_test) compile plans through core, which
// imports this package; these are the internals they read.
var (
	AdversarialWord = adversarialWord
	TraceRuns       = traceRuns
	Checkpoints     = checkpoints
)

// OpCensus lists how many instructions of each opcode p executes.
func OpCensus(p *Program) string {
	names := [numOps]string{opAdd: "add", opSub: "sub", opMul: "mul", opMod: "mod", opAnd: "and", opOr: "or",
		opXor: "xor", opNot: "not", opEq: "eq", opLt: "lt", opMux: "mux", opLex: "lex", opSwap: "swap"}
	var count [numOps]int
	for _, op := range p.ops {
		count[op]++
	}
	var b strings.Builder
	for op, k := range count {
		if k > 0 {
			fmt.Fprintf(&b, " %s %d", names[op], k)
		}
	}
	return b.String()
}

// ProgramDiff names the first field in which a and b differ, or returns
// "" when they are equal field for field (the slab pool apart).
func ProgramDiff(a, b *Program) string {
	for _, f := range []struct {
		name string
		x, y []int32
	}{
		{"dst", a.dst, b.dst}, {"dst2", a.dst2, b.dst2}, {"a", a.a, b.a}, {"b", a.b, b.b}, {"c", a.c, b.c},
		{"levelEnd", a.levelEnd, b.levelEnd}, {"runEnd", a.runEnd, b.runEnd}, {"runGates", a.runGates, b.runGates},
		{"inputSlots", a.inputSlots, b.inputSlots}, {"outSlots", a.outSlots, b.outSlots},
	} {
		if !slices.Equal(f.x, f.y) {
			return f.name
		}
	}
	switch {
	case !slices.Equal(a.ops, b.ops):
		return "ops"
	case !slices.Equal(a.consts, b.consts):
		return "consts"
	case a.numGates != b.numGates:
		return fmt.Sprintf("numGates (%d, %d)", a.numGates, b.numGates)
	case a.numSlots != b.numSlots:
		return fmt.Sprintf("numSlots (%d, %d)", a.numSlots, b.numSlots)
	case a.swaps != b.swaps || a.lexes != b.lexes:
		return fmt.Sprintf("fused (%d/%d, %d/%d)", a.swaps, a.lexes, b.swaps, b.lexes)
	}
	return ""
}

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled
