package engine

import (
	"context"
	"testing"
	"time"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/vm"
)

// addProgram compiles the one-gate program out = in + k.
func addProgram(t *testing.T, k int64) *vm.Program {
	t.Helper()
	c := boolcircuit.New()
	c.MarkOutput(c.Add(c.Input(), c.Const(k)))
	p, err := vm.Compile(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatcherWindowPerProgram: one fingerprint has two programs while a
// hit-lane job still holds an evicted entry and the plan has been
// recompiled or reloaded from the store. A request for the second
// program arriving inside the first program's window must not strand
// the first program's members: both windows dispatch, each through its
// own program. The members carry no deadline, so a stranded one would
// wait forever.
func TestBatcherWindowPerProgram(t *testing.T) {
	held, fresh := addProgram(t, 1), addProgram(t, 2)
	b := newBatcher(4, 100*time.Millisecond, context.Background())

	type answer struct {
		out []vm.Word
		err error
	}
	first := make(chan answer, 1)
	go func() {
		out, err := b.do(context.Background(), held, []vm.Word{10})
		first <- answer{out, err}
	}()
	// Join the second program only once the first one's window is open.
	for {
		b.mu.Lock()
		open := len(b.pend) == 1
		b.mu.Unlock()
		if open {
			break
		}
		time.Sleep(time.Millisecond)
	}
	out, err := b.do(context.Background(), fresh, []vm.Word{10})
	if err != nil || len(out) != 1 || out[0] != 12 {
		t.Fatalf("second program: out=%v err=%v, want [12]", out, err)
	}
	select {
	case a := <-first:
		if a.err != nil || len(a.out) != 1 || a.out[0] != 11 {
			t.Fatalf("first program: out=%v err=%v, want [11]", a.out, a.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the first program's window never dispatched")
	}
	if n := b.dispatches.Load(); n != 2 {
		t.Fatalf("batches=%d, want 2 (one per program)", n)
	}
}
