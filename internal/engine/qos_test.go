package engine

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/workload"
)

// mkReq builds a request with a generated workload for src.
func mkReq(t testing.TB, src string, seed int64, n int) Request {
	t.Helper()
	q := query.MustParse(src)
	db := workload.ForQuery(q, seed, n)
	return Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
}

// blockMissLane registers a never-resolving compile flight for req's
// fingerprint and submits req, so one miss worker is parked waiting on
// the flight. Returns the resolve function (call it to unblock) and
// req's result channel.
func blockMissLane(t *testing.T, e *Engine, req Request) (<-chan Result, func()) {
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
	// The miss is counted in the critical section that joins the flight,
	// so one more miss than before means the worker is parked on fl.done.
	// (Counting from zero would return at once on an engine that has
	// served a miss already, before the worker had picked the job up.)
	before := e.misses.Load()
	out := e.Submit(context.Background(), req)
	for e.misses.Load() == before {
		time.Sleep(time.Millisecond)
	}
	return out, func() {
		e.mu.Lock()
		fl.ent = &entry{fp: canon.FP, canon: canon,
			compileErr: guard.Invalidf("test: parked flight resolved to RAM"), gates: 1, uncached: true}
		e.flights.leave(canon.FP)
		e.mu.Unlock()
		close(fl.done)
	}
}

// TestEngineShedOnFullMissLane: with ShedOnFull, a full miss lane
// rejects immediately with a typed *guard.OverloadError instead of
// blocking, and the admission counters reconcile with what clients observed.
func TestEngineShedOnFullMissLane(t *testing.T) {
	e := New(Config{Workers: 1, MissWorkers: 1, MissQueueDepth: 1, ShedPolicy: ShedOnFull})
	defer e.Close()

	parked := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 3, 8)
	queued := mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", 4, 8)
	shedMe := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C)", 5, 8)

	parkedOut, resolve := blockMissLane(t, e, parked)
	queuedOut := e.Submit(context.Background(), queued) // fills the 1-deep miss queue

	res := <-e.Submit(context.Background(), shedMe)
	if !errors.Is(res.Err, guard.ErrOverloaded) {
		t.Fatalf("full miss lane returned %v, want ErrOverloaded", res.Err)
	}
	var oe *guard.OverloadError
	if !errors.As(res.Err, &oe) {
		t.Fatalf("shed error %v is not an *OverloadError", res.Err)
	}
	if oe.Lane != "miss" || oe.Reason != "queue_full" {
		t.Fatalf("shed fields = %+v, want miss/queue_full", oe)
	}

	resolve()
	if res := <-parkedOut; res.Err != nil {
		t.Fatalf("parked request failed: %v", res.Err)
	}
	if res := <-queuedOut; res.Err != nil {
		t.Fatalf("queued request failed: %v", res.Err)
	}

	s := e.Metrics()
	if s.Admitted[laneMiss] != 2 || s.Shed[laneMiss][shedQueueFull] != 1 {
		t.Fatalf("admission: admitted=%v shed=%v, want 2 miss admits + 1 queue_full shed", s.Admitted, s.Shed)
	}
}

// TestEngineHitLaneIsolation is the point of cost-classed admission: a
// saturated miss lane must not starve or shed requests whose plan is
// already cached.
func TestEngineHitLaneIsolation(t *testing.T) {
	e := New(Config{Workers: 2, MissWorkers: 1, MissQueueDepth: 1, ShedPolicy: ShedOnFull})
	defer e.Close()

	warm := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 7, 10)
	if res := e.Serve(context.Background(), warm); res.Err != nil {
		t.Fatal(res.Err)
	}

	// Saturate the miss lane: one parked compile + one queued behind it.
	parkedOut, resolve := blockMissLane(t, e, mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", 8, 8))
	queuedOut := e.Submit(context.Background(), mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C)", 9, 8))

	for i := 0; i < 5; i++ {
		res := e.Serve(context.Background(), warm)
		if res.Err != nil {
			t.Fatalf("hit %d failed under miss-lane saturation: %v", i, res.Err)
		}
		if !res.CacheHit {
			t.Fatalf("hit %d missed the cache", i)
		}
	}
	if res := <-e.Submit(context.Background(), mkReq(t, "Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D)", 10, 8)); !errors.Is(res.Err, guard.ErrOverloaded) {
		t.Fatalf("cold request on the full miss lane returned %v, want ErrOverloaded", res.Err)
	}

	resolve()
	<-parkedOut
	<-queuedOut
	// The initial warm serve was a miss-lane admission; only the 5
	// repeats rode the hit lane.
	if s := e.Metrics(); s.Admitted[laneHit] != 5 {
		t.Fatalf("hit admissions = %d, want 5", s.Admitted[laneHit])
	}
}

// TestEngineAdaptiveShedsLowPriority: at LevelCritical the adaptive
// policy sheds below-normal-priority work at admission with a typed
// reason, while normal-priority work is still admitted.
func TestEngineAdaptiveShedsLowPriority(t *testing.T) {
	e := New(Config{Workers: 1, MissWorkers: 1, MissQueueDepth: 4, ShedPolicy: ShedAdaptive})
	defer e.Close()

	parkedOut, resolve := blockMissLane(t, e, mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", 11, 8))
	var queuedOut []<-chan Result
	for _, src := range []string{
		"Q(A,B,C) :- R(A,B), S(B,C)",
		"Q(A,B,C) :- R(A,B), S(A,C)",
		"Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D)",
	} {
		queuedOut = append(queuedOut, e.Submit(context.Background(), mkReq(t, src, 12, 8)))
	}
	// Miss queue now 3/4 full: critical, with room for one more.

	low := WithPriority(context.Background(), PriorityLow)
	res := <-e.Submit(low, mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 13, 8))
	var oe *guard.OverloadError
	if !errors.As(res.Err, &oe) || oe.Reason != "priority" {
		t.Fatalf("low-priority submit under critical load returned %v, want priority shed", res.Err)
	}

	normalOut := e.Submit(context.Background(), mkReq(t, "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)", 14, 8))
	resolve()
	<-parkedOut
	for _, out := range queuedOut {
		<-out
	}
	if res := <-normalOut; res.Err != nil {
		t.Fatalf("normal-priority request failed: %v", res.Err)
	}
	if s := e.Metrics(); s.Shed[laneMiss][shedPriority] != 1 {
		t.Fatalf("priority sheds = %v, want 1", s.Shed)
	}
}

// cachedPlanSHA is the SHA-256 of the plan artifact e holds for req —
// the bytes the store would write for it.
func cachedPlanSHA(t *testing.T, e *Engine, req Request) [sha256.Size]byte {
	t.Helper()
	canon := mustCanon(t, req)
	e.mu.Lock()
	ent := e.cache.get(canon.FP)
	e.mu.Unlock()
	if ent == nil || ent.compiled == nil {
		t.Fatalf("no compiled plan cached for %s", req.Query)
	}
	data, err := store.EncodePlan(store.FromCompiled(ent.canon, ent.compiled))
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// TestEngineCompileIgnoresLoad: the plan is a function of (Q, DC), not
// of how busy the engine was when it compiled. A shape compiled by an
// adaptive engine whose miss queue is half full encodes to the same
// bytes as the same shape compiled by an idle engine.
func TestEngineCompileIgnoresLoad(t *testing.T) {
	target := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 15, 8)

	idle := New(Config{})
	defer idle.Close()
	if res := idle.Serve(context.Background(), target); res.Err != nil {
		t.Fatal(res.Err)
	}

	// One miss worker, parked; target and a filler queue behind it, so
	// when the worker reaches target the filler still occupies half of
	// the two-deep miss queue.
	busy := New(Config{Workers: 1, MissWorkers: 1, MissQueueDepth: 2, ShedPolicy: ShedAdaptive})
	defer busy.Close()
	parkedOut, resolve := blockMissLane(t, busy, mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C)", 16, 8))
	targetOut := busy.Submit(context.Background(), target)
	fillerOut := busy.Submit(context.Background(), mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", 17, 8))
	resolve()
	<-parkedOut
	if res := <-targetOut; res.Err != nil || res.CacheHit {
		t.Fatalf("err=%v cacheHit=%v, want a fresh compile under load", res.Err, res.CacheHit)
	}
	<-fillerOut

	if got, want := cachedPlanSHA(t, busy, target), cachedPlanSHA(t, idle, target); got != want {
		t.Fatalf("plan compiled with the miss queue half full encodes to %x, compiled idle to %x", got, want)
	}
}

// TestEngineNegativeEntryTTLHeals: a sticky negative plan-cache entry
// (here planted as if a transient condition had misclassified a
// perfectly compilable shape) serves from the RAM tier only until its
// TTL lapses; the next request recompiles and gets the circuit plan.
func TestEngineNegativeEntryTTLHeals(t *testing.T) {
	e := New(Config{NegativeTTL: time.Minute})
	defer e.Close()

	// Deterministic clock.
	var clock atomic.Int64
	clock.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	e.mu.Lock()
	e.cache.now = func() time.Time { return time.Unix(0, clock.Load()) }
	e.mu.Unlock()

	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 21, 10)
	canon, err := query.Canonicalize(req.Query, req.DCs)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.cache.add(&entry{fp: canon.FP, canon: canon,
		compileErr: guard.Invalidf("test: transiently misclassified"), gates: 1})
	e.mu.Unlock()

	res := e.Serve(context.Background(), req)
	if res.Err != nil || res.Tier != TierRAM || !res.CacheHit {
		t.Fatalf("pinned shape: err=%v tier=%q hit=%v, want RAM-tier cache hit", res.Err, res.Tier, res.CacheHit)
	}
	if m := e.Metrics(); m.Compiles != 0 {
		t.Fatalf("pinned shape reached the compiler: %d compiles", m.Compiles)
	}

	clock.Add(int64(time.Minute) + 1) // TTL lapses

	res = e.Serve(context.Background(), req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit || res.Tier != TierVM {
		t.Fatalf("after TTL: hit=%v tier=%q, want recompiled vm serve", res.CacheHit, res.Tier)
	}
	if m := e.Metrics(); m.Compiles != 1 {
		t.Fatalf("after TTL: compiles=%d, want 1", m.Compiles)
	}

	// The healed (positive) entry does not expire.
	clock.Add(int64(time.Hour))
	if res := e.Serve(context.Background(), req); res.Err != nil || !res.CacheHit {
		t.Fatalf("healed entry gone: err=%v hit=%v", res.Err, res.CacheHit)
	}
}

// TestEngineNegativeTTLDisabled: a negative NegativeTTL pins sticky
// entries forever (the pre-TTL behavior).
func TestEngineNegativeTTLDisabled(t *testing.T) {
	e := New(Config{NegativeTTL: -1})
	defer e.Close()
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	e.mu.Lock()
	e.cache.now = func() time.Time { return time.Unix(0, clock.Load()) }
	e.mu.Unlock()

	q := query.Path2Projected() // non-full: sticky RAM entry
	db := workload.ForQuery(q, 22, 8)
	req := Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	if res := e.Serve(context.Background(), req); res.Err != nil || res.Tier != TierRAM {
		t.Fatalf("err=%v tier=%q", res.Err, res.Tier)
	}
	clock.Add(int64(365 * 24 * time.Hour))
	res := e.Serve(context.Background(), req)
	if res.Err != nil || !res.CacheHit {
		t.Fatalf("sticky entry expired with TTL disabled: err=%v hit=%v", res.Err, res.CacheHit)
	}
}

// TestEngineConcurrentCloseAndServe: Close is idempotent and safe to
// race against itself and against Serve; every request either completes
// or fails with a typed error, and no goroutine panics or deadlocks.
func TestEngineConcurrentCloseAndServe(t *testing.T) {
	for _, policy := range []ShedPolicy{ShedBlock, ShedOnFull} {
		t.Run(policy.String(), func(t *testing.T) {
			e := New(Config{Workers: 2, MissWorkers: 2, ShedPolicy: policy})
			req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 31, 8)
			if res := e.Serve(context.Background(), req); res.Err != nil {
				t.Fatal(res.Err)
			}

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			start := make(chan struct{})
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 8; i++ {
						res := e.Serve(context.Background(), req)
						if res.Err == nil {
							continue
						}
						if !errors.Is(res.Err, guard.ErrInvalidInput) &&
							!errors.Is(res.Err, guard.ErrCanceled) &&
							!errors.Is(res.Err, guard.ErrOverloaded) {
							errs <- fmt.Errorf("untyped error during close: %v", res.Err)
							return
						}
					}
				}()
			}
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := e.Close(); err != nil {
						errs <- fmt.Errorf("close: %v", err)
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			// A closed engine rejects as invalid input under the legacy
			// block policy, and as a typed draining overload ("retry
			// elsewhere") under shedding policies.
			res := e.Serve(context.Background(), req)
			if policy == ShedBlock && !errors.Is(res.Err, guard.ErrInvalidInput) {
				t.Fatalf("serve after close: %v, want ErrInvalidInput", res.Err)
			}
			if policy != ShedBlock {
				var oe *guard.OverloadError
				if !errors.As(res.Err, &oe) || oe.Reason != "draining" {
					t.Fatalf("serve after close: %v, want a draining OverloadError", res.Err)
				}
			}
		})
	}
}

// TestEngineShutdownBoundsDrain: Shutdown with an already-dead context
// cancels the engine-scoped compile context immediately, yet still
// drains the accepted request once its (fake) flight resolves, and
// returns without hanging.
func TestEngineShutdownBoundsDrain(t *testing.T) {
	e := New(Config{Workers: 1, MissWorkers: 1})
	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 41, 8)
	out, resolve := blockMissLane(t, e, req)

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	go func() { done <- e.Shutdown(ctx) }()

	// Resolve the flight the way a canceled compile would; the parked
	// request must drain with either a served result or a typed error.
	time.Sleep(5 * time.Millisecond)
	resolve()

	if res := <-out; res.Err != nil && !errors.Is(res.Err, guard.ErrCanceled) {
		t.Fatalf("drained request failed with untyped error: %v", res.Err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

// TestEngineDrainTyped: under a shedding policy, Submit on a closed
// engine resolves at once with the typed draining overload, and the
// engine counts it as one draining shed on the miss lane.
func TestEngineDrainTyped(t *testing.T) {
	e := New(Config{Workers: 2, ShedPolicy: ShedOnFull})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-e.Submit(context.Background(), shapeReq(t, 140))
	var oe *guard.OverloadError
	if !errors.As(res.Err, &oe) || oe.Reason != "draining" {
		t.Fatalf("closed engine returned %v, want a draining OverloadError", res.Err)
	}
	if s := e.Metrics(); s.Shed[laneMiss][shedDraining] != 1 || shedTotal(s) != 1 {
		t.Fatalf("shed = %v, want exactly one miss/draining", s.Shed)
	}
}

// TestEngineLedgerReconciles: on an unloaded coalescing engine every
// request is admitted once and none is shed, and every vm evaluation —
// cold or warm, each alone in its window here — is one counted batch.
func TestEngineLedgerReconciles(t *testing.T) {
	e := New(Config{Workers: 2, BatchMaxSize: 2, BatchWindow: time.Millisecond})
	defer e.Close()
	var total int64
	for i := 0; i < 10; i++ {
		req := shapeReq(t, 80+i)
		for j := 0; j < 2; j++ {
			if res := e.Serve(context.Background(), req); res.Err != nil || res.Tier != TierVM {
				t.Fatalf("shape %d: err=%v tier=%q", i, res.Err, res.Tier)
			}
			total++
		}
	}
	m := e.Metrics()
	if m.Requests != total || m.Tiers[tierVM].Served != total {
		t.Fatalf("requests=%d served by vm=%d, want %d each", m.Requests, m.Tiers[tierVM].Served, total)
	}
	if shedTotal(m) != 0 {
		t.Fatalf("shed=%d, want 0", shedTotal(m))
	}
	if m.Batches != total || m.BatchedRequests != total {
		t.Fatalf("batches=%d batched requests=%d, want %d each", m.Batches, m.BatchedRequests, total)
	}
}

// shedTotal sums m's sheds over lanes and reasons.
func shedTotal(m Metrics) int64 {
	var n int64
	for _, byReason := range m.Shed {
		for _, v := range byReason {
			n += v
		}
	}
	return n
}

func mustCanon(t *testing.T, req Request) *query.Canonical {
	t.Helper()
	c, err := query.Canonicalize(req.Query, req.DCs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// flipCtx reports context.DeadlineExceeded from Err() once a fault
// injection site has been hit `after` times, with no Done channel and
// no Deadline. Combined with an injected deadline-classified error at
// the same site's `after`-th hit, it makes "the wall clock ran out
// mid-evaluation" fully deterministic: the evaluator fails at an exact
// gate, and every later ctx poll agrees the deadline has passed.
type flipCtx struct {
	in    *faultinject.Injector
	site  faultinject.Site
	after int64
}

func (c *flipCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *flipCtx) Done() <-chan struct{}       { return nil }
func (c *flipCtx) Value(any) any               { return nil }
func (c *flipCtx) Err() error {
	if c.in.Hits(c.site) >= c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// deadlineErr builds the error guard.Poll produces for an expired
// deadline, for injection at a fault site.
func deadlineErr() error {
	return fmt.Errorf("%w: wall-clock deadline: %w", guard.ErrBudgetExceeded, context.DeadlineExceeded)
}

// TestEngineDeadlineMatrix drives one request's deadline to expire at
// each pipeline stage and asserts, for every case: the returned error
// classifies as both guard.ErrBudgetExceeded and
// context.DeadlineExceeded, the attempts report is consistent with
// where the clock ran out, and the engine counts the failure at the
// right stage.
func TestEngineDeadlineMatrix(t *testing.T) {
	type outcome struct {
		res   Result
		stage string
	}
	cases := []struct {
		name string
		run  func(t *testing.T) outcome
	}{
		{"queued", func(t *testing.T) outcome {
			e := New(Config{Workers: 1, MissWorkers: 1, ShedPolicy: ShedOnFull})
			defer e.Close()
			req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 51, 8)
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			res := <-e.Submit(ctx, req)
			if s := e.Metrics(); s.Deadline[stageQueued] != 1 {
				t.Fatalf("deadline[queued]=%d, want 1 (%v)", s.Deadline[stageQueued], s.Deadline)
			}
			if len(res.Attempts) != 0 {
				t.Fatalf("queued-stage failure recorded tier attempts: %v", res.Attempts)
			}
			return outcome{res, "queued"}
		}},
		{"compile", func(t *testing.T) outcome {
			e := New(Config{Workers: 1, MissWorkers: 1, ShedPolicy: ShedOnFull})
			defer e.Close()
			req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 52, 8)
			canon := mustCanon(t, req)
			e.mu.Lock()
			fl, leader := e.flights.join(canon.FP) // park the request as follower
			e.mu.Unlock()
			if !leader {
				t.Fatal("flight already present")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			res := <-e.Submit(ctx, req)
			e.mu.Lock()
			e.flights.leave(canon.FP)
			e.mu.Unlock()
			close(fl.done)
			if s := e.Metrics(); s.Deadline[stageCompile] != 1 {
				t.Fatalf("deadline[compile]=%d, want 1 (%v)", s.Deadline[stageCompile], s.Deadline)
			}
			if len(res.Attempts) != 0 {
				t.Fatalf("compile-stage failure recorded tier attempts: %v", res.Attempts)
			}
			return outcome{res, "compile"}
		}},
		{"oblivious", func(t *testing.T) outcome {
			// "oblivious" is the deadline stage for the plan's
			// oblivious circuit, which the vm tier runs. The vm reports
			// every instruction to the word-gate site, so the ordinal
			// below is the nth instruction of the program.
			e := New(Config{Workers: 1, MissWorkers: 1, ShedPolicy: ShedOnFull})
			defer e.Close()
			req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 53, 10)
			if res := e.Serve(context.Background(), req); res.Err != nil {
				t.Fatal(res.Err) // warm the plan
			}
			in := faultinject.New()
			const nth = 10
			in.FailAt(faultinject.SiteWordGate, nth, deadlineErr())
			ctx := faultinject.WithInjector(&flipCtx{in: in, site: faultinject.SiteWordGate, after: nth}, in)
			res := <-e.Submit(ctx, req)
			if s := e.Metrics(); s.Deadline[stageOblivious] != 1 {
				t.Fatalf("deadline[oblivious]=%d, want 1 (%v)", s.Deadline[stageOblivious], s.Deadline)
			}
			if len(res.Attempts) != 1 || res.Attempts[0].Tier != TierVM || res.Attempts[0].Err == nil {
				t.Fatalf("attempts = %v, want one failed vm attempt", res.Attempts)
			}
			return outcome{res, "oblivious"}
		}},
		{"ram", func(t *testing.T) outcome {
			e := New(Config{Workers: 1, MissWorkers: 1, ShedPolicy: ShedOnFull})
			defer e.Close()
			req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 54, 10)
			if res := e.Serve(context.Background(), req); res.Err != nil {
				t.Fatal(res.Err)
			}
			in := faultinject.New()
			in.FailAt(faultinject.SiteWordGate, 1, nil) // ordinary fault fails tier 1
			const nth = 2                               // a three-atom query joins twice
			in.FailAt(faultinject.SiteRAMJoin, nth, deadlineErr())
			ctx := faultinject.WithInjector(&flipCtx{in: in, site: faultinject.SiteRAMJoin, after: nth}, in)
			res := <-e.Submit(ctx, req)
			if s := e.Metrics(); s.Deadline[stageRAM] != 1 {
				t.Fatalf("deadline[ram]=%d, want 1 (%v)", s.Deadline[stageRAM], s.Deadline)
			}
			if len(res.Attempts) != 2 ||
				res.Attempts[0].Tier != TierVM || res.Attempts[1].Tier != TierRAM {
				t.Fatalf("attempts = %v, want failed vm then ram", res.Attempts)
			}
			if errors.Is(res.Attempts[0].Err, context.DeadlineExceeded) {
				t.Fatalf("tier-1 failure misclassified as deadline: %v", res.Attempts[0].Err)
			}
			return outcome{res, "ram"}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.run(t)
			if o.res.Err == nil {
				t.Fatalf("stage %s: request succeeded, want deadline failure", o.stage)
			}
			if !errors.Is(o.res.Err, guard.ErrBudgetExceeded) {
				t.Fatalf("stage %s: %v does not classify as ErrBudgetExceeded", o.stage, o.res.Err)
			}
			if !errors.Is(o.res.Err, context.DeadlineExceeded) {
				t.Fatalf("stage %s: %v does not classify as context.DeadlineExceeded", o.stage, o.res.Err)
			}
			if o.res.Tier != "" {
				t.Fatalf("stage %s: a tier (%s) served despite the deadline", o.stage, o.res.Tier)
			}
		})
	}
}

// parkHitWorker warms a small plan and submits it again under a context
// whose first Err() poll blocks, pinning the engine's single hit worker
// inside process() until release is called; hit-lane jobs submitted
// meanwhile sit queued, holding the entry admission gave them.
func parkHitWorker(t *testing.T, e *Engine, seed int64) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	gateReq := mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", seed, 8)
	if res := e.Serve(context.Background(), gateReq); res.Err != nil {
		t.Fatal(res.Err)
	}
	out := e.Submit(&gateContext{Context: context.Background(), gate: gate}, gateReq)
	return func() {
		close(gate)
		if res := <-out; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// TestEngineQueuedHitKeepsEvictedPlan: a request admitted onto the hit
// lane owns the plan it was admitted with. Evicting that plan from the
// cache before a worker picks the job up changes nothing for it: it is
// answered from the entry it holds — a cache hit on the vm tier, no
// compile, nothing shed.
func TestEngineQueuedHitKeepsEvictedPlan(t *testing.T) {
	e := New(Config{Workers: 1, MissWorkers: 1, ShedPolicy: ShedOnFull})
	defer e.Close()
	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 71, 10)
	want := e.Serve(context.Background(), req)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	canon := mustCanon(t, req)
	release := parkHitWorker(t, e, 72)
	compiles := e.Metrics().Compiles

	out := e.Submit(context.Background(), req) // holds the plan, queued behind the gate
	e.mu.Lock()
	ent := e.cache.entries[canon.FP]
	if ent == nil {
		t.Fatal("plan missing before eviction")
	}
	e.cache.remove(ent)
	e.mu.Unlock()
	release()

	res := <-out
	if res.Err != nil {
		t.Fatalf("queued hit failed after its plan was evicted: %v", res.Err)
	}
	if !res.CacheHit || res.Tier != TierVM {
		t.Fatalf("hit=%v tier=%q, want a vm-tier cache hit from the held entry", res.CacheHit, res.Tier)
	}
	if !res.Output.Equal(want.Output) {
		t.Fatal("answer from the held entry differs from the cached serve")
	}
	if m := e.Metrics(); m.Compiles != compiles {
		t.Fatalf("compiles went %d → %d; the held plan must not be recompiled", compiles, m.Compiles)
	}
	if m := e.Metrics(); shedTotal(m) != 0 {
		t.Fatalf("shed = %v, want none", m.Shed)
	}
}

// TestEngineQueuedHitKeepsExpiredNegativeEntry is the negative-entry
// twin: a queued request holding a RAM-pinned entry whose NegativeTTL
// lapses before pickup is still answered by the RAM tier, with the
// pinned reason as a typed attempt; the next request finds the entry
// expired and recompiles.
func TestEngineQueuedHitKeepsExpiredNegativeEntry(t *testing.T) {
	e := New(Config{Workers: 1, MissWorkers: 1, ShedPolicy: ShedOnFull, NegativeTTL: time.Minute})
	defer e.Close()
	var clock atomic.Int64
	clock.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	e.mu.Lock()
	e.cache.now = func() time.Time { return time.Unix(0, clock.Load()) }
	e.mu.Unlock()

	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 73, 10)
	canon := mustCanon(t, req)
	e.mu.Lock()
	e.cache.add(&entry{fp: canon.FP, canon: canon,
		compileErr: guard.Invalidf("test: transiently misclassified"), gates: 1})
	e.mu.Unlock()
	release := parkHitWorker(t, e, 74)
	compiles := e.Metrics().Compiles

	out := e.Submit(context.Background(), req) // holds the negative entry
	clock.Add(int64(time.Minute) + 1)          // TTL lapses while it is queued
	release()

	res := <-out
	if res.Err != nil || !res.CacheHit || res.Tier != TierRAM {
		t.Fatalf("err=%v hit=%v tier=%q, want a RAM-tier hit from the held entry", res.Err, res.CacheHit, res.Tier)
	}
	if len(res.Attempts) != 2 || res.Attempts[0].Tier != TierVM ||
		!errors.Is(res.Attempts[0].Err, guard.ErrInvalidInput) ||
		res.Attempts[1].Tier != TierRAM || res.Attempts[1].Err != nil {
		t.Fatalf("attempts = %v, want typed vm pin reason then RAM served", res.Attempts)
	}
	if m := e.Metrics(); m.Compiles != compiles {
		t.Fatalf("compiles went %d → %d before the expired entry was looked up again", compiles, m.Compiles)
	}

	res = e.Serve(context.Background(), req)
	if res.Err != nil || res.CacheHit || res.Tier != TierVM {
		t.Fatalf("next request: err=%v hit=%v tier=%q, want a recompiled vm serve", res.Err, res.CacheHit, res.Tier)
	}
	if m := e.Metrics(); m.Compiles != compiles+1 {
		t.Fatalf("next request: compiles=%d, want %d", m.Compiles, compiles+1)
	}
}

// gateContext blocks the first Err() poll until gate closes, pinning a
// worker inside process() deterministically.
type gateContext struct {
	context.Context
	gate <-chan struct{}
	once sync.Once
}

func (c *gateContext) Err() error {
	c.once.Do(func() { <-c.gate })
	return c.Context.Err()
}
