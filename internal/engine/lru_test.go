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

// TestPlanCacheRecharge: raising an entry's cost after its vm program
// compiles re-accounts the cache total and evicts colder entries to get
// back under the gate budget — but never the recharged entry itself,
// and never an entry that was already evicted.
func TestPlanCacheRecharge(t *testing.T) {
	c := newPlanCache(100, 0)
	a, b := testEntry(1, 40), testEntry(2, 40)
	c.add(a)
	c.add(b) // b is now most recently used; both fit (80 ≤ 100)

	// Recharging b by 30 pushes the total to 110 > 100: a (LRU) goes.
	if n := len(c.recharge(b, 30)); n != 1 {
		t.Fatalf("recharge evicted %d entries, want 1", n)
	}
	if c.entries[a.fp] != nil {
		t.Fatal("LRU entry survived a recharge past the budget")
	}
	if c.entries[b.fp] != b {
		t.Fatal("recharged entry was evicted")
	}
	if b.gates != 70 || c.gates != 70 {
		t.Fatalf("accounting: entry=%d cache=%d, want 70/70", b.gates, c.gates)
	}

	// Recharging the sole remaining entry past the budget keeps it (the
	// in-use entry is never evicted) with the honest total recorded.
	if n := len(c.recharge(b, 50)); n != 0 {
		t.Fatalf("sole-entry recharge evicted %d entries", n)
	}
	if c.gates != 120 || c.entries[b.fp] != b {
		t.Fatalf("sole entry: gates=%d present=%v", c.gates, c.entries[b.fp] != nil)
	}

	// Recharging an entry that was evicted in the meantime is a no-op.
	gone := testEntry(3, 10)
	if n := len(c.recharge(gone, 99)); n != 0 || c.gates != 120 {
		t.Fatalf("stale recharge: evicted=%d gates=%d", n, c.gates)
	}
}

// TestVMProgramChargedToCache: the lazily-compiled vm program's
// slot/instruction footprint joins the plan-cache accounting on first
// vm-tier use — CachedGates grows by exactly vmCost(prog) over the
// post-compile circuit charge, and only once however many requests
// reuse the program.
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
	want := base + vmCost(ent.vmProg)
	if vmCost(ent.vmProg) <= 0 {
		t.Fatal("vm program has no footprint to charge")
	}
	if ent.gates != want {
		t.Fatalf("entry charged %d gates, want %d (circuits %d + vm %d)",
			ent.gates, want, base, vmCost(ent.vmProg))
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
