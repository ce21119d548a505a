package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/workload"
)

// TestEngineStress hammers one engine from many goroutines over a set of
// distinct queries and checks, under -race:
//
//   - every result equals the reference RAM evaluation;
//   - singleflight holds: with a cache large enough to keep every plan
//     resident, each distinct fingerprint is compiled exactly once no
//     matter how many goroutines race on the cold cache;
//   - Close is clean: it drains everything and later submissions fail.
func TestEngineStress(t *testing.T) {
	type work struct {
		req  Request
		want *relation.Relation
	}
	srcs := []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
		"Q(A,B,C) :- R(A,B), S(B,C)",
		"Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D)",
		"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)",
		"Q(X,Y,Z) :- S(X,Y), T(Z,Y), R(Z,X)", // alpha/reorder variant of the triangle
	}
	distinctFingerprints := 4 // the 5th source shares the triangle's plan

	var works []work
	for i, src := range srcs {
		q := query.MustParse(src)
		db := workload.ForQuery(q, int64(20+i), 10)
		if i == len(srcs)-1 {
			// The triangle variant evaluates the triangle's own
			// database: derived constraints are then structurally
			// identical and the two requests must share one plan.
			db = works[0].req.DB
		}
		dcs, err := query.DeriveDC(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Query: q, DCs: dcs, DB: db}
		if i%3 != 0 {
			// Both admission forms race on the cold cache, and the
			// triangle (plain) shares its plan with its variant (prepared).
			req = Prepare(req)
		}
		works = append(works, work{req: req, want: want})
	}
	fp0, _ := query.QueryFingerprint(works[0].req.Query, works[0].req.DCs)
	fp4, _ := query.QueryFingerprint(works[4].req.Query, works[4].req.DCs)
	if fp0 != fp4 {
		t.Fatalf("alpha-renamed triangle should share the triangle's fingerprint (%s vs %s)", fp0.Short(), fp4.Short())
	}

	const (
		goroutines = 8
		rounds     = 6
	)
	e := New(Config{Workers: 4, MaxCacheGates: 1 << 30})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(works))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, w := range works {
					res := e.Serve(context.Background(), w.req)
					if res.Err != nil {
						errs <- fmt.Errorf("goroutine %d round %d work %d: %v", g, round, i, res.Err)
						return
					}
					if !res.Output.Equal(w.want) {
						errs <- fmt.Errorf("goroutine %d round %d work %d: wrong answer", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	m := e.Metrics()
	if int(m.Compiles) != distinctFingerprints {
		t.Errorf("singleflight violated: %d compiles for %d distinct fingerprints", m.Compiles, distinctFingerprints)
	}
	total := int64(goroutines * rounds * len(works))
	if m.Requests != total {
		t.Errorf("requests=%d, want %d", m.Requests, total)
	}
	if m.Hits+m.Misses != total {
		t.Errorf("hits+misses=%d, want %d", m.Hits+m.Misses, total)
	}
	if m.Evictions != 0 {
		t.Errorf("unexpected evictions: %d", m.Evictions)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight=%d after drain", m.InFlight)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if res := e.Serve(context.Background(), works[0].req); res.Err == nil {
		t.Fatal("serve after Close succeeded")
	}
}

// TestEngineStressSmallCache repeats a lighter version of the stress run
// with a cache that can hold roughly one plan, so eviction, recompile,
// and singleflight all interleave. Compile counts are only bounded below
// here; correctness and clean accounting are the assertions.
func TestEngineStressSmallCache(t *testing.T) {
	qs := []*query.Query{
		query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"),
		query.MustParse("Q(A,B,C) :- R(A,B), S(B,C)"),
	}
	type work struct {
		req  Request
		want *relation.Relation
	}
	var works []work
	for i, q := range qs {
		db := workload.ForQuery(q, int64(31+i), 8)
		dcs, err := query.DeriveDC(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := query.EvaluateCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		works = append(works, work{req: Request{Query: q, DCs: dcs, DB: db}, want: want})
	}
	e := New(Config{Workers: 4, MaxCacheGates: 1})
	defer e.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				w := works[(g+round)%len(works)]
				res := e.Serve(context.Background(), w.req)
				if res.Err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, round, res.Err)
					return
				}
				if !res.Output.Equal(w.want) {
					errs <- fmt.Errorf("goroutine %d round %d: wrong answer", g, round)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := e.Metrics()
	if m.Compiles < int64(len(works)) {
		t.Errorf("compiles=%d, want ≥ %d", m.Compiles, len(works))
	}
	if m.CachedPlans != 1 {
		t.Errorf("cached plans=%d, want 1 under a 1-gate budget", m.CachedPlans)
	}
}
