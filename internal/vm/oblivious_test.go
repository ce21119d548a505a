package vm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"circuitql/internal/guard"
)

// Two poisons that differ in every bit: a word of the observation slabs
// that still holds its poison after a run was not written, and a word
// that holds one value in both slabs was computed from the run's declared
// operands alone.
const (
	poisonA Word = 0x5a5a5a5a5a5a5a5a
	poisonB Word = ^poisonA
)

// traceRuns evaluates a batch run by run through the program's own
// executor (execRun, so the kernels EvalBatch would pick at this stride)
// and returns, per run, the run index, the opcode, every slab word the
// run's instructions name as an operand and every slab word the kernel
// was observed to write, plus the output words.
//
// Writes are observed, not read off the program: each run also executes
// on two observation slabs that hold the live values of the run's operand
// slots and a different poison everywhere else. A word the kernel stored
// to holds the same computed value in both; a word it left alone still
// holds the two poisons; anything else means the kernel read a slot the
// instruction stream does not name, or wrote one it reads.
func traceRuns(t *testing.T, p *Program, inputs [][]Word) (trace []int32, out [][]Word) {
	t.Helper()
	B := len(inputs)
	S := 1
	if B > 1 {
		S = (B + 7) &^ 7
	}
	words := p.numSlots * S
	vals, obsA, obsB := make([]Word, words), make([]Word, words), make([]Word, words)
	for _, ci := range p.consts {
		for l := 0; l < S; l++ {
			vals[int(ci.slot)*S+l] = ci.k
		}
	}
	for idx, s := range p.inputSlots {
		for r := 0; r < B && s >= 0; r++ {
			vals[int(s)*S+r] = inputs[r][idx]
		}
	}
	for i := range obsA {
		obsA[i], obsB[i] = poisonA, poisonB
	}

	isRead := make([]bool, p.numSlots)
	lo := 0
	for k, e := range p.runEnd {
		hi := int(e)
		trace = append(trace, int32(k), int32(p.ops[lo]))
		var reads []int32
		for i := lo; i < hi; i++ {
			for _, s := range [3]int32{p.a[i], p.b[i], p.c[i]} {
				if s >= 0 && !isRead[s] {
					isRead[s] = true
					reads = append(reads, s)
				}
			}
		}
		for _, s := range reads {
			copy(obsA[int(s)*S:][:S], vals[int(s)*S:][:S])
			copy(obsB[int(s)*S:][:S], vals[int(s)*S:][:S])
			for l := 0; l < S; l++ {
				trace = append(trace, s*int32(S)+int32(l))
			}
		}
		trace = append(trace, -1)
		p.execRun(obsA, S, lo, hi)
		p.execRun(obsB, S, lo, hi)
		from := len(trace)
		for w := range obsA {
			s := w / S
			switch {
			case isRead[s]:
				if obsA[w] != vals[w] || obsB[w] != vals[w] {
					t.Fatalf("run %d (opcode %d): slot %d lane %d is an operand of the run and was overwritten", k, p.ops[lo], s, w%S)
				}
			case obsA[w] == poisonA && obsB[w] == poisonB:
			case obsA[w] == obsB[w]:
				trace = append(trace, int32(w))
				obsA[w], obsB[w] = poisonA, poisonB
			default:
				t.Fatalf("run %d (opcode %d): slot %d lane %d depends on a slot the run's instructions do not name", k, p.ops[lo], s, w%S)
			}
		}
		// Every instruction stores the same number of words in every lane,
		// its first destination among them.
		writes := trace[from:]
		if n := (hi - lo) * S; len(writes) == 0 || len(writes)%n != 0 {
			t.Fatalf("run %d (opcode %d): %d words written by %d instructions over %d lanes", k, p.ops[lo], len(writes), hi-lo, S)
		}
		for i := lo; i < hi; i++ {
			if _, ok := slices.BinarySearch(writes, p.dst[i]*int32(S)); !ok {
				t.Fatalf("run %d (opcode %d): instruction %d did not store to its destination slot %d", k, p.ops[lo], i, p.dst[i])
			}
		}
		for _, s := range reads {
			isRead[s] = false
			for l := 0; l < S; l++ {
				obsA[int(s)*S+l], obsB[int(s)*S+l] = poisonA, poisonB
			}
		}
		p.execRun(vals, S, lo, hi)
		lo = hi
	}

	out = make([][]Word, B)
	for r := range out {
		out[r] = make([]Word, len(p.outSlots))
		for oi, s := range p.outSlots {
			out[r][oi] = vals[int(s)*S+r]
		}
	}
	return trace, out
}

// budgetTrip runs EvalBatch under a cap of maxGates and returns the gate
// count of the checkpoint that refused to go on, or false when the whole
// evaluation fit under the cap.
func budgetTrip(t *testing.T, p *Program, inputs [][]Word, maxGates int) (done int, tripped bool) {
	t.Helper()
	ctx := guard.WithBudget(context.Background(), &guard.Budget{MaxGates: int64(maxGates)})
	_, err := p.EvalBatch(ctx, inputs)
	if err == nil {
		return 0, false
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("cap %d: err=%v, want ErrBudgetExceeded", maxGates, err)
	}
	if _, scanErr := fmt.Sscanf(err.Error(), "vm: after %d", &done); scanErr != nil || done <= maxGates {
		t.Fatalf("cap %d: tripped at an unreadable or impossible checkpoint: %v", maxGates, err)
	}
	return done, true
}

// checkpoints returns the position of every budget checkpoint of
// EvalBatch on inputs, in the unit the evaluator charges, read off the
// real executor: a gate cap one below a checkpoint trips exactly there.
func checkpoints(t *testing.T, p *Program, inputs [][]Word) []int {
	t.Helper()
	var at []int
	for limit := 1; ; {
		done, tripped := budgetTrip(t, p, inputs, limit)
		if !tripped {
			return at
		}
		at = append(at, done)
		limit = done
	}
}
