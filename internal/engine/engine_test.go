package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/workload"
)

func mustDerive(t testing.TB, q *query.Query, db query.Database) query.DCSet {
	t.Helper()
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return dcs
}

// shapeReq builds a distinct full-CQ request by salting the DC set with
// a per-shape degree bound, minting distinct fingerprints from one
// query text (the soak harness's trick).
func shapeReq(t *testing.T, salt int) Request {
	t.Helper()
	q := query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	db := workload.ForQuery(q, int64(100+salt), 8)
	extra, err := query.ParseDC(q, fmt.Sprintf("R <= %d", 64+salt))
	if err != nil {
		t.Fatal(err)
	}
	return Request{Query: q, DCs: append(mustDerive(t, q, db), extra...), DB: db}
}

// TestEngineServesCorrectResults cross-checks every full catalog query
// against the reference RAM evaluation, twice (cold then cached). A
// planted witness keeps each answer non-empty, so no query passes by
// comparing ∅ with ∅.
func TestEngineServesCorrectResults(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	for _, ent := range query.Catalog() {
		if !ent.Query.IsFull() {
			continue
		}
		if len(ent.Query.Atoms) > 4 {
			continue // keep compile time modest; bowtie is covered elsewhere
		}
		db := workload.ForQuery(ent.Query, 3, 12)
		workload.PlantWitness(ent.Query, db, 3, 12)
		dcs := mustDerive(t, ent.Query, db)
		want, err := query.EvaluateCtx(context.Background(), ent.Query, db)
		if err != nil {
			t.Fatalf("%s: reference: %v", ent.Name, err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: reference answer is empty despite the planted witness", ent.Name)
		}
		req := Request{Query: ent.Query, DCs: dcs, DB: db}
		cold := e.Serve(context.Background(), req)
		if cold.Err != nil {
			t.Fatalf("%s: cold serve: %v", ent.Name, cold.Err)
		}
		if cold.CacheHit {
			t.Errorf("%s: first request reported a cache hit", ent.Name)
		}
		if !cold.Output.Equal(want) {
			t.Fatalf("%s: cold output differs from reference", ent.Name)
		}
		warm := e.Serve(context.Background(), req)
		if warm.Err != nil {
			t.Fatalf("%s: warm serve: %v", ent.Name, warm.Err)
		}
		if !warm.CacheHit {
			t.Errorf("%s: repeat request missed the cache", ent.Name)
		}
		if !warm.Output.Equal(want) {
			t.Fatalf("%s: warm output differs from reference", ent.Name)
		}
		if warm.Tier != TierVM {
			t.Errorf("%s: warm request served by %q, want vm", ent.Name, warm.Tier)
		}
	}
}

// TestEngineSharesPlansAcrossRenaming is the point of the canonical
// fingerprint: a request whose query differs only by variable names and
// atom order must hit the plan compiled for the original, and its output
// must carry the new request's column names.
func TestEngineSharesPlansAcrossRenaming(t *testing.T) {
	e := New(Config{})
	defer e.Close()

	q1 := query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	db := workload.TriangleDB(workload.TriangleUniform, 5, 12)
	dcs1 := mustDerive(t, q1, db)
	r1 := e.Serve(context.Background(), Request{Query: q1, DCs: dcs1, DB: db})
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}

	// Same hypergraph, renamed variables, atoms reordered. The DC set is
	// re-derived from the same database, so it is the same set of
	// (relation, bound) facts in a different order.
	q2 := query.MustParse("Q(Y,Z,X) :- S(Y,Z), T(X,Z), R(X,Y)")
	dcs2 := mustDerive(t, q2, db)
	r2 := e.Serve(context.Background(), Request{Query: q2, DCs: dcs2, DB: db})
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.Fingerprint != r1.Fingerprint {
		t.Fatalf("renamed query got a different fingerprint (%s vs %s)", r2.Fingerprint.Short(), r1.Fingerprint.Short())
	}
	if !r2.CacheHit {
		t.Fatal("renamed query missed the cache")
	}
	want, err := query.EvaluateCtx(context.Background(), q2, db)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Output.Equal(want) {
		t.Fatalf("renamed query output differs from its own reference evaluation\n got %v\nwant %v", r2.Output, want)
	}
	if m := e.Metrics(); m.Compiles != 1 {
		t.Fatalf("expected exactly one compile across the renamed pair, got %d", m.Compiles)
	}
}

// TestEngineEviction forces a tiny gate budget and checks plans are
// evicted (and recompiled on return) without affecting answers.
func TestEngineEviction(t *testing.T) {
	e := New(Config{MaxCacheGates: 1}) // every insert displaces the previous plan
	defer e.Close()

	mk := func(src string) Request {
		q := query.MustParse(src)
		db := workload.ForQuery(q, 7, 8)
		return Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	}
	a := mk("Q(A,B,C) :- R(A,B), S(B,C)")
	b := mk("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D)")
	for i := 0; i < 2; i++ {
		if r := e.Serve(context.Background(), a); r.Err != nil || r.CacheHit {
			t.Fatalf("round %d a: err=%v hit=%v (want recompile after eviction)", i, r.Err, r.CacheHit)
		}
		if r := e.Serve(context.Background(), b); r.Err != nil || r.CacheHit {
			t.Fatalf("round %d b: err=%v hit=%v", i, r.Err, r.CacheHit)
		}
	}
	m := e.Metrics()
	if m.Evictions < 3 {
		t.Fatalf("expected ≥3 evictions with a 1-gate budget, got %d", m.Evictions)
	}
	if m.CachedPlans != 1 {
		t.Fatalf("expected exactly 1 resident plan, got %d", m.CachedPlans)
	}
}

// TestEngineNonFullQueryServedByRAM: non-full queries have no Theorem-4
// plan; the engine pins them to the RAM tier via a sticky negative cache
// entry (one canonicalization miss, no compile attempts).
func TestEngineNonFullQueryServedByRAM(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	q := query.Path2Projected()
	db := workload.ForQuery(q, 9, 16)
	req := Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := e.Serve(context.Background(), req)
		if r.Err != nil {
			t.Fatalf("round %d: %v", i, r.Err)
		}
		if r.Tier != TierRAM {
			t.Fatalf("round %d: served by %q, want ram", i, r.Tier)
		}
		if !r.Output.Equal(want) {
			t.Fatalf("round %d: output differs from reference", i)
		}
	}
	m := e.Metrics()
	if m.Compiles != 0 {
		t.Fatalf("non-full query should not reach the compiler, got %d compiles", m.Compiles)
	}
	if m.Hits != 1 {
		t.Fatalf("second request should hit the sticky entry, hits=%d", m.Hits)
	}
}

// TestEngineValidation: malformed requests and nonconforming databases
// surface as ErrInvalidInput, not crashes.
func TestEngineValidation(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 1, 8)

	// Constraint set referencing the wrong query.
	other := query.Star3()
	r := e.Serve(context.Background(), Request{Query: q, DCs: query.Cardinalities(other, 8), DB: db})
	if !errors.Is(r.Err, guard.ErrInvalidInput) {
		t.Fatalf("bad DC set: got %v, want ErrInvalidInput", r.Err)
	}

	// Database violating the compiled cardinality bound.
	small := query.Cardinalities(q, 2)
	r = e.Serve(context.Background(), Request{Query: q, DCs: small, DB: db})
	if !errors.Is(r.Err, guard.ErrInvalidInput) {
		t.Fatalf("oversized db: got %v, want ErrInvalidInput", r.Err)
	}
}

// TestEngineCanceledContext: a dead context fails fast with ErrCanceled.
func TestEngineCanceledContext(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 1, 8)
	r := e.Serve(ctx, Request{Query: q, DCs: query.Cardinalities(q, 8), DB: db})
	if !errors.Is(r.Err, guard.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", r.Err)
	}
}

// TestEngineClose: Close drains and further submissions fail cleanly.
func TestEngineClose(t *testing.T) {
	e := New(Config{Workers: 2})
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 2, 8)
	req := Request{Query: q, DCs: query.Cardinalities(q, 8), DB: db}
	if r := e.Serve(context.Background(), req); r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	r := e.Serve(context.Background(), req)
	if !errors.Is(r.Err, guard.ErrInvalidInput) {
		t.Fatalf("serve after close: got %v, want ErrInvalidInput", r.Err)
	}
}

// TestEngineServeBatch fans independent requests over the pool.
func TestEngineServeBatch(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()
	var reqs []Request
	var wants []*queryResult
	for _, ent := range []query.CatalogEntry{
		{Name: "triangle", Query: query.Triangle()},
		{Name: "path2", Query: query.Path2()},
		{Name: "star3", Query: query.Star3()},
	} {
		db := workload.ForQuery(ent.Query, 11, 10)
		want, err := query.EvaluateCtx(context.Background(), ent.Query, db)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{Query: ent.Query, DCs: mustDerive(t, ent.Query, db), DB: db})
		wants = append(wants, &queryResult{name: ent.Name, want: want})
	}
	for _, res := range [][]Result{
		e.ServeBatch(context.Background(), reqs),
		e.ServeBatch(context.Background(), reqs), // second pass: all hits
	} {
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", wants[i].name, r.Err)
			}
			if !r.Output.Equal(wants[i].want) {
				t.Fatalf("%s: batch output differs from reference", wants[i].name)
			}
		}
	}
	if m := e.Metrics(); m.Compiles != 3 || m.Hits != 3 {
		t.Fatalf("want 3 compiles + 3 hits, got compiles=%d hits=%d", m.Compiles, m.Hits)
	}
}

type queryResult struct {
	name string
	want *relation.Relation
}

// TestEngineProcessPanicContained: a panic on the request path outside
// the per-tier recovers (here: Canonicalize dereferencing a nil Query)
// must surface as a typed error, never as a zero Result whose nil Err
// reads as success.
func TestEngineProcessPanicContained(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	res := e.Serve(context.Background(), Request{})
	if res.Err == nil {
		t.Fatalf("panic swallowed: got %+v", res)
	}
	if !errors.Is(res.Err, guard.ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", res.Err)
	}
	if m := e.Metrics(); m.Failed != 1 {
		t.Fatalf("failed=%d, want 1", m.Failed)
	}
	// The worker that contained the panic keeps serving.
	q := query.Triangle()
	db := workload.TriangleDB(workload.TriangleUniform, 1, 8)
	if r := e.Serve(context.Background(), Request{Query: q, DCs: query.Cardinalities(q, 8), DB: db}); r.Err != nil {
		t.Fatal(r.Err)
	}
}

// flightLeaderSetup registers a fake compile flight for the request's
// fingerprint (so a real request becomes a follower), starts the request,
// and blocks until it has joined the flight. The returned resolve
// function completes the flight the way a leader would.
func flightLeaderSetup(t *testing.T, e *Engine, req Request) (<-chan Result, func(ent *entry, err error)) {
	t.Helper()
	canon, err := query.Canonicalize(req.Query, req.DCs)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	fl, leader := e.flights.join(canon.FP)
	e.mu.Unlock()
	if !leader {
		t.Fatal("a flight is already in progress")
	}
	done := make(chan Result, 1)
	before := e.misses.Load()
	go func() { done <- e.Serve(context.Background(), req) }()
	// The follower records its miss and joins the flight under one
	// critical section, so one more miss implies it is waiting on fl.done.
	for e.misses.Load() == before {
		time.Sleep(time.Millisecond)
	}
	return done, func(ent *entry, err error) {
		e.mu.Lock()
		fl.ent, fl.err = ent, err
		e.flights.leave(canon.FP)
		e.mu.Unlock()
		close(fl.done)
	}
}

// TestEngineFollowerOutlivesCanceledLeader: a singleflight follower whose
// leader fails with the *leader's* cancellation must not inherit it — it
// retries under its own live context and compiles the plan itself.
func TestEngineFollowerOutlivesCanceledLeader(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	q := query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	db := workload.ForQuery(q, 5, 8)
	req := Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}

	done, resolve := flightLeaderSetup(t, e, req)
	resolve(nil, fmt.Errorf("%w: leader request canceled", guard.ErrCanceled))

	res := <-done
	if res.Err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", res.Err)
	}
	if !res.Output.Equal(want) {
		t.Fatal("follower retry produced a wrong answer")
	}
	if m := e.Metrics(); m.Compiles != 1 {
		t.Fatalf("follower should have recompiled exactly once, compiles=%d", m.Compiles)
	}
}

// TestEngineInternalCompileFaultNotSticky: an internal compiler fault
// serves its own flight from the RAM tier but must not pin the query
// shape — the next request recompiles and gets the circuit plan.
func TestEngineInternalCompileFaultNotSticky(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	q := query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	db := workload.ForQuery(q, 6, 8)
	req := Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	want, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := query.Canonicalize(req.Query, req.DCs)
	if err != nil {
		t.Fatal(err)
	}

	done, resolve := flightLeaderSetup(t, e, req)
	// Resolve the flight as compile() does for an ErrInternal fault: an
	// uncached RAM-only entry.
	resolve(&entry{
		fp:         canon.FP,
		canon:      canon,
		compileErr: fmt.Errorf("%w: injected compiler fault", guard.ErrInternal),
		gates:      1,
		uncached:   true,
	}, nil)

	res := <-done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Tier != TierRAM {
		t.Fatalf("faulted plan served by %q, want ram", res.Tier)
	}
	if !res.Output.Equal(want) {
		t.Fatal("RAM fallback produced a wrong answer")
	}

	res = e.Serve(context.Background(), req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit {
		t.Fatal("uncached fault entry leaked into the plan cache")
	}
	if res.Tier != TierVM {
		t.Fatalf("retry served by %q, want vm (fault must not be sticky)", res.Tier)
	}
	if m := e.Metrics(); m.Compiles != 1 {
		t.Fatalf("retry should have compiled exactly once, compiles=%d", m.Compiles)
	}
}
