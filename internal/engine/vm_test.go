package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/workload"
)

// TestEngineVMTierServes: a warm plan serves from the vm tier with the
// same answer the reference evaluation produces, and the per-tier
// metrics attribute the serve to the vm.
func TestEngineVMTierServes(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 81, 10)
	want, err := query.EvaluateCtx(context.Background(), req.Query, req.DB)
	if err != nil {
		t.Fatal(err)
	}
	cold := e.Serve(context.Background(), req)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	warm := e.Serve(context.Background(), req)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if warm.Tier != TierVM {
		t.Fatalf("warm serve tier = %q, want vm", warm.Tier)
	}
	if !warm.Output.Equal(want) {
		t.Fatal("vm tier output differs from reference")
	}
	if m := e.Metrics(); m.Tiers[tierVM].Served < 1 {
		t.Fatalf("vm served=%d, want ≥1", m.Tiers[tierVM].Served)
	}
}

// checkFellThrough asserts that res is a vm attempt that failed with
// wantErr followed by a clean serve from the tier named served, and
// that the answer still equals the RAM reference.
func checkFellThrough(t *testing.T, res Result, req Request, wantErr error, served string) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("request failed instead of degrading: %v", res.Err)
	}
	if len(res.Attempts) != 2 ||
		res.Attempts[0].Tier != TierVM || !errors.Is(res.Attempts[0].Err, wantErr) ||
		res.Attempts[1].Tier != served || res.Attempts[1].Err != nil || res.Tier != served {
		t.Fatalf("tier=%q attempts=%v, want [vm failed (%v), %s served]", res.Tier, res.Attempts, wantErr, served)
	}
	want, err := query.EvaluateCtx(context.Background(), req.Query, req.DB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(want) {
		t.Fatalf("%s tier answered differently from query.EvaluateCtx", served)
	}
}

// wordGateFault returns a context whose injector fails the vm program
// at its 10th instruction.
func wordGateFault() context.Context {
	in := faultinject.New()
	in.FailAt(faultinject.SiteWordGate, 10, nil)
	return faultinject.WithInjector(context.Background(), in)
}

// TestEngineVMFaultFallsThrough: the vm is the only circuit evaluator,
// so a word-gate fault degrades to the RAM tier — on a plan compiled
// here and on one warm-loaded from the store alike, with the same
// answer either way.
func TestEngineVMFaultFallsThrough(t *testing.T) {
	t.Run("compiled plan", func(t *testing.T) {
		e := New(Config{})
		defer e.Close()
		req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 82, 10)
		if res := e.Serve(context.Background(), req); res.Err != nil {
			t.Fatal(res.Err)
		}
		checkFellThrough(t, e.Serve(wordGateFault(), req), req, faultinject.ErrInjected, TierRAM)
	})
	t.Run("store-loaded plan", func(t *testing.T) {
		req := storeReq(t, "triangle")
		e := warmLoaded(t, req)
		defer e.Close()
		res := e.Serve(wordGateFault(), req)
		if !res.CacheHit {
			t.Fatal("plan was not warm-loaded from the store")
		}
		checkFellThrough(t, res, req, faultinject.ErrInjected, TierRAM)
	})
}

// warmLoaded compiles req's plan into a fresh store with one engine and
// returns a second engine warm-started from that store, so it holds the
// plan without having compiled it.
func warmLoaded(t *testing.T, req Request) *Engine {
	t.Helper()
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := New(Config{Store: st1})
	if res := eng1.Serve(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	eng1.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Store: st2})
}

// TestEngineLadderIgnoresPlanOrigin: a plan is served the same way
// whether this process compiled it or loaded it from the store. Under a
// word-gate fault both engines walk the same tier sequence (vm, ram),
// and under a deadline both give the vm attempt the same share: a vm
// estimate of 2.5s fits half of a 6s deadline, so the vm tier runs and
// serves — on a three-tier ladder its third would not fit and the tier
// would be skipped.
func TestEngineLadderIgnoresPlanOrigin(t *testing.T) {
	req := storeReq(t, "triangle")
	fresh := New(Config{})
	defer fresh.Close()
	if res := fresh.Serve(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	warm := warmLoaded(t, req)
	defer warm.Close()

	type walk struct{ faulted, deadlined []string }
	probe := func(e *Engine) walk {
		faulted := e.Serve(wordGateFault(), req)
		for i := 0; i < 16; i++ { // swamp what the serves above recorded
			e.estTier[tierVM].Observe(2500 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 6*time.Second)
		defer cancel()
		deadlined := e.Serve(ctx, req)
		for _, res := range []Result{faulted, deadlined} {
			if res.Err != nil || !res.CacheHit {
				t.Fatalf("err=%v cacheHit=%v, want a served cache hit", res.Err, res.CacheHit)
			}
		}
		return walk{attemptTiers(faulted), attemptTiers(deadlined)}
	}
	got, want := probe(fresh), walk{[]string{TierVM, TierRAM}, []string{TierVM}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled plan walked %v, want %v", got, want)
	}
	if got := probe(warm); !reflect.DeepEqual(got, want) {
		t.Fatalf("store-loaded plan walked %v, the compiled one %v", got, want)
	}
	if m := warm.Metrics(); m.Compiles != 0 {
		t.Fatalf("warm-started engine compiled %d plans, want 0", m.Compiles)
	}
}

// attemptTiers lists the tiers a result attempted, in order.
func attemptTiers(res Result) []string {
	tiers := make([]string, len(res.Attempts))
	for i, a := range res.Attempts {
		tiers[i] = a.Tier
	}
	return tiers
}

// TestEngineBatchPanicContained: a panic inside a coalesced vm batch is
// contained in the batcher whichever goroutine dispatched it. On the
// window timer's goroutine an escaped panic would kill the process; on
// a member's worker it would strand that member's companions. Either
// way every member must get the same typed internal error for its vm
// attempt and fall through to the RAM tier with the right answer.
func TestEngineBatchPanicContained(t *testing.T) {
	cases := []struct {
		name          string
		members, size int
		window        time.Duration
	}{
		// A lone member never fills the batch: the timer dispatches it.
		{"timer dispatch", 1, 4, 5 * time.Millisecond},
		// The window outlasts the members' arrival: the last one to join
		// fills the batch and dispatches it on its own worker.
		{"size dispatch", 3, 3, 2 * time.Second},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(Config{Workers: c.members, BatchMaxSize: c.size, BatchWindow: c.window})
			defer e.Close()
			req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 87, 10)
			if res := e.Serve(context.Background(), req); res.Err != nil {
				t.Fatal(res.Err)
			}
			warmBatches := e.QoS().Batches

			in := faultinject.New()
			in.PanicAt(faultinject.SiteWordGate, 10, "boom")
			// The deadline only bounds a stranded member's wait, so a
			// regression fails the test instead of hanging it.
			ctx, cancel := context.WithTimeout(faultinject.WithInjector(context.Background(), in), time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			results := make([]Result, c.members)
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = e.Serve(ctx, req)
				}(i)
			}
			wg.Wait()
			for _, res := range results {
				checkFellThrough(t, res, req, guard.ErrInternal, TierRAM)
			}
			if got := e.QoS().Batches - warmBatches; got != 1 {
				t.Fatalf("members were dispatched in %d batches, want 1", got)
			}
		})
	}
}

// countSpans walks a span tree counting spans by name.
func countSpans(s *obs.Span, counts map[string]int) {
	counts[s.Name]++
	for _, c := range s.Children() {
		countSpans(c, counts)
	}
}

// TestEngineBatchCoalescing: concurrent same-fingerprint requests
// coalesce into one vm batch — exactly one vm-eval span for the whole
// batch (not one per request), a batch-occupancy record on the QoS
// ledger, and every member still gets its own correct answer.
func TestEngineBatchCoalescing(t *testing.T) {
	tracer := obs.NewTracer(64)
	const B = 4
	// The window must be long enough that all B members reliably arrive
	// before the timer (the size trigger then dispatches), yet short
	// enough that the solo warm serve below doesn't stall the test.
	e := New(Config{
		Workers:      B, // all members must park concurrently
		BatchMaxSize: B,
		BatchWindow:  500 * time.Millisecond,
		Tracer:       tracer,
	})
	defer e.Close()
	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 83, 10)
	want, err := query.EvaluateCtx(context.Background(), req.Query, req.DB)
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Serve(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err) // warm the plan (dispatches a batch of 1)
	}
	warmBatches := e.QoS().Batches

	var wg sync.WaitGroup
	results := make([]Result, B)
	for i := 0; i < B; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Serve(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("member %d: %v", i, res.Err)
		}
		if res.Tier != TierVM {
			t.Fatalf("member %d served by %q, want vm", i, res.Tier)
		}
		if !res.Output.Equal(want) {
			t.Fatalf("member %d got a wrong answer", i)
		}
	}

	s := e.QoS()
	if s.Batches != warmBatches+1 {
		t.Fatalf("Batches=%d, want %d (the 4 members must share one dispatch)", s.Batches, warmBatches+1)
	}
	if s.BatchedRequests < B {
		t.Fatalf("BatchedRequests=%d, want ≥%d", s.BatchedRequests, B)
	}

	// The regression the obs satellite pins: one vm-eval span per batch,
	// not per request. Across the whole run (warm serve + coalesced
	// batch) that is exactly 2 vm-eval spans over 5 serves.
	counts := map[string]int{}
	for _, root := range tracer.Last(0) {
		countSpans(root, counts)
	}
	if got := counts[obs.StageVMEval]; got != 2 {
		t.Fatalf("vm-eval spans = %d over 5 serves, want 2 (one per batch)", got)
	}
	if got := counts[obs.StageVMComp]; got != 1 {
		t.Fatalf("vm-compile spans = %d, want 1 (compiled once per cached plan)", got)
	}
	// That span says what the circuit became: a triangle plan sorts, so
	// both fused forms appear, and every one of them saved instructions.
	attrs := map[string]int64{}
	for _, root := range tracer.Last(0) {
		vmCompileAttrs(root, attrs)
	}
	gates, instrs := attrs[obs.CounterGates], attrs[obs.CounterInstructions]
	swaps, lexes := attrs[obs.CounterFusedSwap], attrs[obs.CounterFusedLex]
	if swaps == 0 || lexes == 0 || attrs[obs.CounterLevels] == 0 || instrs == 0 || instrs+swaps+3*lexes >= gates {
		t.Fatalf("vm-compile span counters %v: want gates > instructions + fused_swap + 3·fused_lex, all non-zero, and levels", attrs)
	}
}

// vmCompileAttrs collects the integer counters of the vm-compile spans
// under s.
func vmCompileAttrs(s *obs.Span, into map[string]int64) {
	if s.Name == obs.StageVMComp {
		for _, a := range s.Attrs() {
			into[a.Key] += a.Int
		}
	}
	for _, c := range s.Children() {
		vmCompileAttrs(c, into)
	}
}

// TestEngineBatchDeadlineFanOut: a member whose context is already dead
// gets its deadline error immediately while its batch companions are
// served normally — one member's clock must not poison the batch.
func TestEngineBatchDeadlineFanOut(t *testing.T) {
	const B = 2
	e := New(Config{
		Workers:      B,
		BatchMaxSize: B,
		BatchWindow:  50 * time.Millisecond,
	})
	defer e.Close()
	req := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 84, 10)
	if res := e.Serve(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	var live, doomed Result
	wg.Add(2)
	go func() { defer wg.Done(); live = e.Serve(context.Background(), req) }()
	go func() { defer wg.Done(); doomed = e.Serve(dead, req) }()
	wg.Wait()

	if live.Err != nil {
		t.Fatalf("live member: %v", live.Err)
	}
	if doomed.Err == nil {
		t.Fatal("canceled member was served without error")
	}
}

// TestEngineBatchAcrossFingerprints: coalescing keys on the plan's vm
// program, so requests for different queries never share a batch but
// both still serve through the vm tier.
func TestEngineBatchAcrossFingerprints(t *testing.T) {
	e := New(Config{Workers: 2, BatchMaxSize: 4, BatchWindow: 5 * time.Millisecond})
	defer e.Close()
	reqA := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 85, 10)
	reqB := Request{Query: query.MustParse("Q(X,Y,Z) :- R(X,Y), S(Y,Z)")}
	reqB.DB = workload.ForQuery(reqB.Query, 86, 10)
	reqB.DCs = mustDerive(t, reqB.Query, reqB.DB)

	for _, r := range []Request{reqA, reqB} {
		if res := e.Serve(context.Background(), r); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for _, r := range []Request{reqA, reqB} {
		want, err := query.EvaluateCtx(context.Background(), r.Query, r.DB)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Serve(context.Background(), r)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Tier != TierVM {
			t.Fatalf("tier = %q, want vm", res.Tier)
		}
		if !res.Output.Equal(want) {
			t.Fatal("wrong answer through the batched vm path")
		}
	}
}
