package opt_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

// TestPooledBuilderReuse holds served compiles that lower into a released
// builder's buffers — a large plan's reused for a small one, a small
// one's regrown for a large one — to the .plan bytes (the vm program) and
// the swept word circuit's bytes of the fresh-builder route: raw lowering
// into boolcircuit.New, then opt.BoolCtx, which replays into a fresh
// rewriting builder. Large and small alternate five
// times in sequence, then on four goroutines at once, each starting at
// another point of the cycle.
func TestPooledBuilderReuse(t *testing.T) {
	type shape struct {
		name    string
		canon   *query.Canonical
		want    [sha256.Size]byte // the .plan file's
		circuit [sha256.Size]byte // the swept circuit's encoding
	}
	var shapes []shape
	for _, s := range []struct {
		name, src string
		tuples    int
	}{
		{"triangle16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
		{"pair4", "Q(A,B) :- R(A,B), S(A,B)", 4},
	} {
		q, dcs, _, err := workload.Instance(s.src, "", 1, s.tuples)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := query.Canonicalize(q, dcs)
		if err != nil {
			t.Fatal(err)
		}
		fused := mustCompile(t, canon.Query, canon.DCs, core.CompileOptions{})
		lowered, err := core.CompileObliviousCtx(context.Background(), fused.Rel)
		if err != nil {
			t.Fatalf("%s: raw lowering: %v", s.name, err)
		}
		lowered.C = mustBool(t, lowered.C)
		prog, err := vm.Compile(context.Background(), lowered.C)
		if err != nil {
			t.Fatalf("%s: vm compile: %v", s.name, err)
		}
		fresh := &core.Compiled{Query: fused.Query, DC: fused.DC, Rel: fused.Rel, RelOutput: fused.RelOutput, Obliv: lowered, Prog: prog}
		shapes = append(shapes, shape{s.name, canon, planSHA(t, canon, fresh), sha256.Sum256(lowered.C.Append(nil))})
	}
	if len(shapes) != 2 {
		t.Fatal("want one large and one small shape")
	}

	// compileAt compiles the k-th shape of the large, small, large, …
	// cycle through the pooled builder and compares its plan bytes.
	compileAt := func(k int) error {
		s := shapes[k%2]
		compiled, err := core.CompileQueryCtx(context.Background(), s.canon.Query, s.canon.DCs)
		if err != nil {
			return fmt.Errorf("%s: compile: %w", s.name, err)
		}
		data, err := store.EncodePlan(store.FromCompiled(s.canon, compiled))
		if err != nil {
			return fmt.Errorf("%s: encode: %w", s.name, err)
		}
		if got := sha256.Sum256(data); got != s.want {
			return fmt.Errorf("%s: .plan SHA-256 %x after a pooled build, the fresh route gives %x", s.name, got, s.want)
		}
		if got := sha256.Sum256(compiled.Obliv.C.Append(nil)); got != s.circuit {
			return fmt.Errorf("%s: swept circuit SHA-256 %x after a pooled build, the fresh route gives %x", s.name, got, s.circuit)
		}
		return nil
	}
	for k := 0; k < 5; k++ {
		if err := compileAt(k); err != nil {
			t.Fatalf("in sequence, compile %d: %v", k, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < g+5 && errs[g] == nil; k++ {
				errs[g] = compileAt(k)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
