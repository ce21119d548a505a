package engine

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/workload"
)

// corruptPlanFile flips a byte in the middle of a stored plan artifact.
func corruptPlanFile(t testing.TB, dir string, fp query.Fingerprint) {
	t.Helper()
	path := filepath.Join(dir, fp.String()+".plan")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// storeReq builds a serving request for a catalog query with
// constraints derived from its standard workload database.
func storeReq(t testing.TB, name string) Request {
	t.Helper()
	var q *query.Query
	for _, ent := range query.Catalog() {
		if ent.Name == name {
			q = ent.Query
		}
	}
	if q == nil {
		t.Fatalf("no catalog query %q", name)
	}
	db := workload.ForQuery(q, 1, 6)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatalf("DeriveDC(%s): %v", name, err)
	}
	return Request{Query: q, DCs: dcs, DB: db}
}

// TestStoreRestartZeroCompiles is the restart acceptance gate: an
// engine with a persistent store compiles each shape once; a second
// engine warm-started from the same directory serves every one of them
// without a single compile, from loading the store through serving —
// and at least 2.5× faster than the cold compiles it replaces.
func TestStoreRestartZeroCompiles(t *testing.T) {
	names := []string{"triangle", "path3", "cycle4"}
	dir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	eng1 := New(Config{Store: st1})
	cold := make(map[string]Result, len(names))
	for _, name := range names {
		res := eng1.Serve(ctx, storeReq(t, name))
		if res.Err != nil {
			t.Fatalf("cold %s: %v", name, res.Err)
		}
		cold[name] = res
	}
	eng1.Close()
	m1 := eng1.Metrics()
	if m1.Compiles != int64(len(names)) {
		t.Fatalf("cold engine ran %d compiles, want %d", m1.Compiles, len(names))
	}
	if m1.StoreWrites != int64(len(names)) || st1.Len() != len(names) {
		t.Fatalf("store after cold run: writes=%d plans=%d, want %d each", m1.StoreWrites, st1.Len(), len(names))
	}

	// Restart: a fresh store handle and a warm-started engine.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// Warm-start cost is plan acquisition: loading every stored plan
	// into the caches during New. Evaluation happens identically on both
	// sides, so it stays out of the comparison.
	start := time.Now()
	eng2 := New(Config{Store: st2})
	warmDur := time.Since(start)
	// Two more restarts, timed only: a single sample spreads 5-14 ms from
	// run to run, and the ratio's first percentile with it (2.2× against
	// 3.1× for the fastest of three).
	for i := 0; i < 2; i++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		start := time.Now()
		eng := New(Config{Store: st})
		if d := time.Since(start); d < warmDur {
			warmDur = d
		}
		eng.Close()
	}
	for _, name := range names {
		res := eng2.Serve(ctx, storeReq(t, name))
		if res.Err != nil {
			t.Fatalf("warm %s: %v", name, res.Err)
		}
		if !res.CacheHit {
			t.Fatalf("warm %s was not a cache hit (tier %s)", name, res.Tier)
		}
		if !res.Output.Equal(cold[name].Output) {
			t.Fatalf("warm %s answered differently: %d rows vs %d", name, res.Output.Len(), cold[name].Output.Len())
		}
	}
	eng2.Close()

	m2 := eng2.Metrics()
	if m2.Compiles != 0 {
		t.Fatalf("warm engine recompiled %d plans, want 0", m2.Compiles)
	}
	if m2.Hits != int64(len(names)) {
		t.Fatalf("warm engine hits=%d, want %d", m2.Hits, len(names))
	}
	if m2.StoreHits < int64(len(names)) {
		t.Fatalf("warm load read %d plans from disk, want ≥%d", m2.StoreHits, len(names))
	}

	// The fastest of three ~6.5 ms restarts against ~29 ms of cold compiles:
	// what decoding a plan costs against lowering and vm-compiling it. Over
	// 200 isolated runs the ratio has median 4.4×, first percentile 3.1×
	// and minimum 2.8×, so 2.5× sits 1.8 under the median and a warm load
	// twice as slow fails (EXPERIMENTS.md, "The exact LP at machine-word
	// speed"). The race detector slows the two sides unevenly (60 runs:
	// median 3.7×, minimum 2.7×), so a race build asserts only the
	// deterministic part above.
	const factor = 2.5
	coldCompile := time.Duration(m1.CompileLatency.SumMicros) * time.Microsecond
	t.Logf("warm start %v, cold compiles %v: %.1f×", warmDur, coldCompile, float64(coldCompile)/float64(warmDur))
	if !raceEnabled && float64(warmDur)*factor > float64(coldCompile) {
		t.Errorf("warm start loaded all shapes in %v, cold compiles took %v — want ≥%.1f× speedup",
			warmDur, coldCompile, factor)
	}
}

// TestStoreMissServesFromDisk: plans the warm start had to evict (the
// cache holds one of three) are served from the store on their first
// request — a cache miss that reads the disk and runs no compile.
func TestStoreMissServesFromDisk(t *testing.T) {
	names := []string{"triangle", "path3", "cycle4"}
	dir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := New(Config{Store: st1})
	cold := make(map[string]Result, len(names))
	for _, name := range names {
		if cold[name] = eng1.Serve(ctx, storeReq(t, name)); cold[name].Err != nil {
			t.Fatalf("cold %s: %v", name, cold[name].Err)
		}
	}
	eng1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Store: st2, MaxCacheGates: 1})
	defer eng.Close()
	loaded := eng.Metrics()
	if loaded.CachedPlans != 1 || loaded.Evictions != 2 {
		t.Fatalf("warm start: cached=%d evictions=%d, want 1 and 2", loaded.CachedPlans, loaded.Evictions)
	}
	// The resident plan goes first: serving an evicted one displaces it.
	eng.mu.Lock()
	for i, name := range names {
		if eng.cache.entries[reqFP(t, storeReq(t, name))] != nil {
			names[0], names[i] = names[i], names[0]
		}
	}
	eng.mu.Unlock()
	for i, name := range names {
		res := eng.Serve(ctx, storeReq(t, name))
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if res.CacheHit != (i == 0) {
			t.Fatalf("%s: cache hit %v, want %v", name, res.CacheHit, i == 0)
		}
		if !res.Output.Equal(cold[name].Output) {
			t.Fatalf("%s answered differently from the cold run", name)
		}
	}
	m := eng.Metrics()
	if m.Compiles != 0 {
		t.Fatalf("compiles=%d, want 0: an evicted plan is read back from the store", m.Compiles)
	}
	if got := m.StoreHits - loaded.StoreHits; got != 2 {
		t.Fatalf("store hits after the warm start: %d, want 2", got)
	}
}

// TestStoreQuarantineFallsBackToCompile: a corrupted artifact must not
// take the shape down — the engine quarantines it via the store and
// compiles fresh.
func TestStoreQuarantineFallsBackToCompile(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := New(Config{Store: st1})
	if res := eng1.Serve(ctx, storeReq(t, "triangle")); res.Err != nil {
		t.Fatalf("cold serve: %v", res.Err)
	}
	eng1.Close()

	// Rot the artifact on disk.
	fps := st1.Plans()
	if len(fps) != 1 {
		t.Fatalf("stored %d plans, want 1", len(fps))
	}
	corruptPlanFile(t, dir, fps[0])

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := New(Config{Store: st2})
	res := eng2.Serve(ctx, storeReq(t, "triangle"))
	eng2.Close()
	if res.Err != nil {
		t.Fatalf("serve after corruption: %v", res.Err)
	}
	m := eng2.Metrics()
	if m.Compiles != 1 {
		t.Fatalf("compiles=%d after corrupt artifact, want 1", m.Compiles)
	}
	if m.StoreCorrupt != 1 {
		t.Fatalf("store corrupt counter=%d, want 1", m.StoreCorrupt)
	}
}
