package engine

import (
	"context"
	"crypto/sha256"
	"testing"

	"circuitql/internal/query"
)

func testEntry(b byte, gates int64) *entry {
	return &entry{fp: query.Fingerprint(sha256.Sum256([]byte{b})), gates: gates}
}

// TestVMProgramChargedToCache: a compiled plan's vm program is charged
// to the plan cache with the plan, at insert — CachedGates is the
// circuits' gates plus the program's slots and instructions — and only
// once however many requests reuse the program.
func TestVMProgramChargedToCache(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := shapeReq(t, 200)

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
	base := int64(ent.compiled.Rel.Size() + ent.compiled.Obliv.C.Size())
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
