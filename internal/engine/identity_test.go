package engine

import (
	"context"
	"encoding/hex"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/workload"
)

// Query identity is the canonical fingerprint and nothing else: these
// tests run on the default configuration and pin that equivalent full
// queries — renamed, reordered, or repeating an atom — are one query to
// every layer of the engine, and that inequivalent ones never are.

// identityVariants are four spellings of the two-atom path join.
var identityVariants = []string{
	"Q(A,B,C) :- R(A,B), S(B,C)",
	"Q(X,Y,Z) :- S(Y,Z), R(X,Y)",
	"Q(A,B,C) :- R(A,B), R(A,B), S(B,C)",
	"Q(U,V,W) :- S(V,W), R(U,V), S(V,W), R(U,V)",
}

// identityReqs builds one request per variant over a shared database,
// under uniform cardinality bounds of n.
func identityReqs(t *testing.T, n int) []Request {
	t.Helper()
	db := workload.ForQuery(query.MustParse(identityVariants[0]), 5, n)
	reqs := make([]Request, len(identityVariants))
	for i, src := range identityVariants {
		q := query.MustParse(src)
		reqs[i] = Request{Query: q, DCs: query.Cardinalities(q, float64(n)), DB: db}
	}
	return reqs
}

// serveAll serves every request concurrently and checks each answer
// against the RAM evaluation of the request's own query, so column
// names are the request's, not the shared plan's.
func serveAll(t *testing.T, e *Engine, reqs []Request) []Result {
	t.Helper()
	results := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Serve(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", reqs[i].Query, res.Err)
		}
		want, err := query.EvaluateCtx(context.Background(), reqs[i].Query, reqs[i].DB)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Output.Equal(want) {
			t.Fatalf("%s: output differs from the RAM evaluation of the request's own query", reqs[i].Query)
		}
	}
	return results
}

// TestEngineSemanticSharedEntry: α- and repeated-atom variants racing
// their first requests compile exactly once and share one cache entry
// and one vm program; warm, they coalesce into one batcher window.
func TestEngineSemanticSharedEntry(t *testing.T) {
	tracer := obs.NewTracer(64)
	B := len(identityVariants)
	e := New(Config{
		Workers:      B, // every variant must park at once
		MissWorkers:  B,
		BatchMaxSize: B,
		BatchWindow:  500 * time.Millisecond,
		Tracer:       tracer,
	})
	defer e.Close()
	reqs := identityReqs(t, 8)

	cold := serveAll(t, e, reqs)
	for i, res := range cold {
		if res.Fingerprint != cold[0].Fingerprint {
			t.Fatalf("%s: fingerprint %s, want %s", reqs[i].Query, res.Fingerprint.Short(), cold[0].Fingerprint.Short())
		}
	}
	if m := e.Metrics(); m.Compiles != 1 || m.CachedPlans != 1 {
		t.Fatalf("racing variants: compiles=%d cached=%d, want 1 and 1", m.Compiles, m.CachedPlans)
	}

	batches := e.QoS().Batches
	for i, res := range serveAll(t, e, reqs) {
		if !res.CacheHit || res.Tier != TierVM {
			t.Fatalf("%s warm: hit=%v tier=%q, want a vm cache hit", reqs[i].Query, res.CacheHit, res.Tier)
		}
	}
	if got := e.QoS().Batches; got != batches+1 {
		t.Fatalf("warm variants dispatched %d batches, want 1 shared window", got-batches)
	}

	if m := e.Metrics(); m.Compiles != 1 || m.CachedPlans != 1 {
		t.Fatalf("after the warm round: compiles=%d cached=%d, want 1 and 1", m.Compiles, m.CachedPlans)
	}
	counts := map[string]int{}
	for _, root := range tracer.Last(0) {
		countSpans(root, counts)
	}
	if got := counts[obs.StageVMComp]; got != 1 {
		t.Fatalf("vm-compile spans = %d, want 1 program for all variants", got)
	}
}

// TestEngineSemanticInequivalentNoAlias: shapes one atom away from the
// path join — S joined through its other column, a reversed extra R —
// are different queries; each keeps its own fingerprint, cache entry
// and answers.
func TestEngineSemanticInequivalentNoAlias(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	db := workload.ForQuery(query.MustParse(identityVariants[0]), 5, 8)
	var reqs []Request
	for _, src := range []string{
		identityVariants[0],
		"Q(A,B,C) :- R(A,B), S(C,B)",
		"Q(A,B,C) :- R(A,B), R(B,A), S(B,C)",
	} {
		q := query.MustParse(src)
		reqs = append(reqs, Request{Query: q, DCs: mustDerive(t, q, db), DB: db})
	}
	seen := map[query.Fingerprint]*query.Query{}
	for i, res := range serveAll(t, e, reqs) {
		if prev, dup := seen[res.Fingerprint]; dup {
			t.Fatalf("%s and %s share fingerprint %s", prev, reqs[i].Query, res.Fingerprint.Short())
		}
		seen[res.Fingerprint] = reqs[i].Query
	}
	if m := e.Metrics(); m.Compiles != 3 || m.CachedPlans != 3 {
		t.Fatalf("inequivalent shapes: compiles=%d cached=%d, want 3 and 3", m.Compiles, m.CachedPlans)
	}
}

// The canonical pair of the repeated-atom variant as the last release
// before atom folding filed it (circuitc -n 4 -store), beside the
// fingerprint the unrepeated pair had then and must keep.
const (
	parentBaseFP    = "d45ded06be672e37a085fa99aaae33a5c5736437caa33592b37cb31d27a4d398"
	parentDupFP     = "ef1d5c3e312f38a860add243875bc14a89d89817b0229f1bb116a7c502ec24fe"
	parentDupQuery  = "Q(x0,x1,x2) :- R(x0,x1), R(x0,x1), S(x1,x2)"
	parentDupDCText = "R <= 4; S <= 4"
)

// TestEngineSemanticAliasLifecycle walks the variants through the
// store: they persist as one artifact under the fingerprint the base
// always had, and a restarted engine serves all of them without a
// compile. An artifact an older release filed under a repeated-atom
// fingerprint no longer re-canonicalizes to that fingerprint; warm
// start skips it and nothing ever asks for it again.
func TestEngineSemanticAliasLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Store: st})
	reqs := identityReqs(t, 4)
	first := serveAll(t, e, reqs)
	for i, res := range first {
		if got := res.Fingerprint.String(); got != parentBaseFP {
			t.Fatalf("%s: fingerprint %s, the unrepeated pair was always %s", reqs[i].Query, got, parentBaseFP)
		}
	}
	if m := e.Metrics(); m.Compiles != 1 {
		t.Fatalf("compiles=%d, want 1", m.Compiles)
	}
	e.Close()
	if files, _ := filepath.Glob(filepath.Join(dir, "*.plan")); len(files) != 1 {
		t.Fatalf("variants persisted as %d plan files, want 1: %v", len(files), files)
	}

	stale, err := st.GetPlan(first[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	stale.FP, stale.QueryText, stale.DCText = mustFP(t, parentDupFP), parentDupQuery, parentDupDCText
	if err := st.PutPlan(stale); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("store holds %d plans, want the live one and the stale one", st2.Len())
	}
	e2 := New(Config{Store: st2})
	defer e2.Close()
	if m := e2.Metrics(); m.CachedPlans != 1 {
		t.Fatalf("warm start cached %d plans, want 1 (the repeated-atom artifact is skipped)", m.CachedPlans)
	}
	for i, res := range serveAll(t, e2, reqs) {
		if !res.CacheHit {
			t.Fatalf("%s: not a cache hit after warm start", reqs[i].Query)
		}
	}
	if m := e2.Metrics(); m.Compiles != 0 {
		t.Fatalf("warm-started engine compiled %d times, want 0", m.Compiles)
	}
}

func mustFP(t *testing.T, s string) query.Fingerprint {
	t.Helper()
	var fp query.Fingerprint
	if n, err := hex.Decode(fp[:], []byte(s)); err != nil || n != len(fp) {
		t.Fatalf("bad fingerprint literal %q", s)
	}
	return fp
}
