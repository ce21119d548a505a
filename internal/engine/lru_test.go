package engine

import (
	"context"
	"crypto/sha256"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/store"
)

func testEntry(b byte, gates int64) *entry {
	return &entry{fp: query.Fingerprint(sha256.Sum256([]byte{b})), gates: gates}
}

// servedEntry serves req on a fresh engine from the vm tier and returns
// the cache entry its compile left.
func servedEntry(t *testing.T, req Request) (*Engine, *entry) {
	t.Helper()
	e := New(Config{})
	t.Cleanup(func() { e.Close() })
	res := e.Serve(context.Background(), req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Tier != TierVM {
		t.Fatalf("served by %q, want the vm tier", res.Tier)
	}
	canon := mustCanon(t, req)
	e.mu.Lock()
	ent := e.cache.entries[canon.FP]
	e.mu.Unlock()
	if ent == nil {
		t.Fatal("plan not cached")
	}
	return e, ent
}

// TestVMProgramChargedToCache: a compiled plan's vm program is charged
// to the plan cache with the plan, at insert — CachedGates is the
// circuits' gates plus the program's slots and instructions — and only
// once however many requests reuse the program. The entry holds no
// circuit, so their sizes come from a compile of the same pair.
func TestVMProgramChargedToCache(t *testing.T) {
	req := shapeReq(t, 200)
	e, ent := servedEntry(t, req)

	canon := mustCanon(t, req)
	compiled, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(compiled.Rel.Size() + compiled.Obliv.C.Size())
	prog := int64(ent.compiled.Prog.Slots() + ent.compiled.Prog.Instructions())
	want := base + prog
	if prog <= 0 {
		t.Fatal("vm program has no footprint to charge")
	}
	if ent.gates != want {
		t.Fatalf("entry charged %d gates, want %d (circuits %d + vm %d)", ent.gates, want, base, prog)
	}
	m := e.Metrics()
	if m.CachedGates != want {
		t.Fatalf("CachedGates=%d, want %d", m.CachedGates, want)
	}

	// Reuse does not double-charge.
	if res := e.Serve(context.Background(), req); res.Err != nil || res.Tier != TierVM {
		t.Fatalf("warm serve: err=%v tier=%q", res.Err, res.Tier)
	}
	if m := e.Metrics(); m.CachedGates != want {
		t.Fatalf("CachedGates drifted to %d after reuse, want %d", m.CachedGates, want)
	}
}

// TestCompiledEntryHoldsNoCircuit: a compiled entry holds what its plan
// file holds, the specs and the program, as a store-loaded one does —
// neither circuit layer — and is still charged what store.Charge makes
// of the whole compile.
func TestCompiledEntryHoldsNoCircuit(t *testing.T) {
	req := shapeReq(t, 201)
	e, ent := servedEntry(t, req)
	if ent.compiled.Rel != nil || ent.compiled.Obliv.C != nil {
		t.Fatalf("compiled entry holds a circuit: Rel %v, Obliv.C %v", ent.compiled.Rel != nil, ent.compiled.Obliv.C != nil)
	}
	if ent.art == nil || ent.art.Prog != ent.compiled.Prog {
		t.Fatal("the entry's artifact is not the program it serves")
	}
	canon := mustCanon(t, req)
	compiled, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Metrics().CachedGates, store.Charge(compiled); got != want {
		t.Fatalf("CachedGates=%d, a compile is charged %d", got, want)
	}
}
