package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// TestEngineConcurrentServeSpanTrees hammers Serve from many goroutines
// with a tracer attached and checks that every recorded span tree is
// well formed and private to its request: one "serve" root per request,
// every node reachable from exactly one root, and valid stage names
// throughout. Run under -race this doubles as the data-race check on
// the span plumbing.
func TestEngineConcurrentServeSpanTrees(t *testing.T) {
	tracer := obs.NewTracer(256)
	e := New(Config{Tracer: tracer})
	defer e.Close()

	queries := []*query.Query{
		query.MustParse("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"),
		query.MustParse("Q(A,B,C) :- R(A,B), S(B,C)"),
		query.MustParse("Q(A,B) :- R(A,B), S(A,B)"),
	}
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		db := workload.ForQuery(q, int64(i+1), 8)
		reqs[i] = Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	}

	const goroutines, perG = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := reqs[(g+i)%len(reqs)]
				if res := e.Serve(context.Background(), req); res.Err != nil {
					t.Errorf("serve: %v", res.Err)
				}
			}
		}(g)
	}
	wg.Wait()

	roots := tracer.Last(0)
	if want := goroutines * perG; len(roots) != want {
		t.Fatalf("recorded %d root spans, want %d (one per request)", len(roots), want)
	}

	validStage := func(name string) bool {
		switch name {
		case obs.StageServe, obs.StageCompile, obs.StageLPSolve, obs.StageProofSeq,
			obs.StageRelCirc, obs.StageBoolCirc, obs.StageOptimize, obs.StageBitblast,
			obs.StageRelEval, obs.StageBoolEval, obs.StageVMComp, obs.StageVMEval,
			obs.StageCanon, obs.StageAdmit, obs.StageValidate, obs.StagePack,
			obs.StageDecode, obs.StageRename:
			return true
		}
		return strings.HasPrefix(name, obs.StageTier)
	}

	seen := make(map[*obs.Span]bool)
	var walk func(root, s *obs.Span)
	walk = func(root, s *obs.Span) {
		if seen[s] {
			t.Fatalf("span %q appears in more than one tree — trees interleaved", s.Name)
		}
		seen[s] = true
		if !validStage(s.Name) {
			t.Fatalf("unknown stage name %q in tree of %q", s.Name, root.Name)
		}
		for _, c := range s.Children() {
			walk(root, c)
		}
	}
	for _, root := range roots {
		if root.Name != obs.StageServe {
			t.Fatalf("root span named %q, want %q", root.Name, obs.StageServe)
		}
		if root.Duration() <= 0 {
			t.Fatalf("root span has non-positive duration %v", root.Duration())
		}
		tiers := 0
		cache := ""
		for _, a := range root.Attrs() {
			if a.Key == "cache" {
				cache = a.Str
			}
		}
		if cache != "hit" && cache != "miss" {
			t.Fatalf("serve span cache tag = %q, want hit or miss", cache)
		}
		for _, c := range root.Children() {
			if strings.HasPrefix(c.Name, obs.StageTier) {
				tiers++
			}
		}
		if tiers == 0 {
			t.Fatal("serve span recorded no tier attempt child")
		}
		walk(root, root)
	}
}

// spanTree renders a span tree as nested names, children in start
// order: "serve{admission tier/vm{pack vm-eval decode}}".
func spanTree(s *obs.Span) string {
	out := s.Name
	if cs := s.Children(); len(cs) > 0 {
		names := make([]string, len(cs))
		for i, c := range cs {
			names[i] = spanTree(c)
		}
		out += "{" + strings.Join(names, " ") + "}"
	}
	return out
}

// TestEngineHitSpanTree: a cache hit records one span per step of the
// hit path and nothing else — no compile, no cache or store stage — and
// the steps account for the request: each child lies inside the serve
// span, which begins when Submit did. A prepared request has no
// canonicalize step; a plain one has it first, and the serve span's
// prepared tag says which it was.
func TestEngineHitSpanTree(t *testing.T) {
	tracer := obs.NewTracer(4)
	e := New(Config{Tracer: tracer})
	defer e.Close()
	plain := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 5, 8)
	if res := e.Serve(context.Background(), plain); res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, c := range []struct {
		req      Request
		prepared string
		want     string
	}{
		{Prepare(plain), "true", "serve{admission validate tier/vm{pack vm-eval decode} rename}"},
		{plain, "false", "serve{canonicalize admission validate tier/vm{pack vm-eval decode} rename}"},
	} {
		res := e.Serve(context.Background(), c.req)
		if res.Err != nil || !res.CacheHit || res.Tier != TierVM {
			t.Fatalf("warm serve: err=%v hit=%v tier=%q", res.Err, res.CacheHit, res.Tier)
		}
		root := tracer.Last(1)[0]
		if got := spanTree(root); got != c.want {
			t.Fatalf("prepared=%s: hit span tree = %s, want %s", c.prepared, got, c.want)
		}
		tag := ""
		for _, a := range root.Attrs() {
			if a.Key == "prepared" {
				tag = a.Str
			}
		}
		if tag != c.prepared {
			t.Fatalf("serve span prepared tag = %q, want %q", tag, c.prepared)
		}
		end := root.Start.Add(root.Duration())
		var sum time.Duration
		var prev *obs.Span
		for _, c := range root.Children() {
			if c.Start.Before(root.Start) || c.Start.Add(c.Duration()).After(end) {
				t.Fatalf("%s [%v +%v] lies outside serve [%v +%v]", c.Name, c.Start, c.Duration(), root.Start, root.Duration())
			}
			if c.Duration() <= 0 {
				t.Fatalf("%s has non-positive duration %v", c.Name, c.Duration())
			}
			if prev != nil && c.Start.Before(prev.Start.Add(prev.Duration())) {
				t.Fatalf("%s starts at %v, before %s ends at %v", c.Name, c.Start, prev.Name, prev.Start.Add(prev.Duration()))
			}
			prev = c
			sum += c.Duration()
		}
		if sum > root.Duration() {
			t.Fatalf("children sum to %v, more than serve's %v", sum, root.Duration())
		}
	}
}

// TestEngineTierCounters: the engine's own tier counters over four
// requests that take every edge of the ladder — a healthy vm serve, a vm
// fault that falls through to RAM, a non-full query pinned to RAM (its
// recorded compile failure makes the serve a fallback), and a vm attempt
// the estimator skips (a skip is not an attempt, but the RAM serve after
// it is a fallback) — and the one set of tier families they render.
func TestEngineTierCounters(t *testing.T) {
	e := New(Config{Workers: 1, MissWorkers: 1})
	defer e.Close()
	tri := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 61, 10)
	q := query.Path2Projected()
	db := workload.ForQuery(q, 9, 16)
	nonFull := Request{Query: q, DCs: mustDerive(t, q, db), DB: db}
	bg := context.Background()
	// Compile the triangle's plan without serving it, so the first
	// request is a hit and no request but the four below is counted.
	canon, err := query.Canonicalize(tri.Query, tri.DCs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.acquire(bg, canon); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name  string
		serve func() Result
		tier  string
		want  [numTiers]TierCounts
		skips int64
	}{
		{"healthy hit", func() Result { return e.Serve(bg, tri) }, TierVM,
			[numTiers]TierCounts{{TierVM, 1, 1, 0}, {TierRAM, 0, 0, 0}}, 0},
		{"vm fault", func() Result { return e.Serve(wordGateFault(), tri) }, TierRAM,
			[numTiers]TierCounts{{TierVM, 2, 1, 0}, {TierRAM, 1, 1, 1}}, 0},
		{"non-full", func() Result { return e.Serve(bg, nonFull) }, TierRAM,
			[numTiers]TierCounts{{TierVM, 2, 1, 0}, {TierRAM, 2, 2, 2}}, 0},
		{"tier skip", func() Result {
			// As in TestEngineDeadlineSkipsDoomedTier: a vm estimate far
			// past the ½ share of the deadline, a cheap RAM one.
			for i := 0; i < 16; i++ {
				e.estTier[tierVM].Observe(10 * time.Second)
			}
			e.estTier[tierRAM].Observe(time.Microsecond)
			ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
			defer cancel()
			return e.Serve(ctx, tri)
		}, TierRAM, [numTiers]TierCounts{{TierVM, 2, 1, 0}, {TierRAM, 3, 3, 3}}, 1},
	}
	for _, s := range steps {
		res := s.serve()
		if res.Err != nil || res.Tier != s.tier {
			t.Fatalf("%s: err=%v tier=%q, want %s", s.name, res.Err, res.Tier, s.tier)
		}
		if got := e.Metrics().Tiers; got != s.want {
			t.Fatalf("%s: tier counts %+v, want %+v", s.name, got, s.want)
		}
		if got := e.QoS().TierSkip; got != s.skips {
			t.Fatalf("%s: TierSkip=%d, want %d", s.name, got, s.skips)
		}
	}

	// Every tier family the engine renders, each once: the three
	// circuitql_eval_tier_* families and no other (no second served
	// counter beside them).
	var tierFams []string
	for _, f := range e.Metrics().Families() {
		if !strings.Contains(f.Name, "_tier_") {
			continue
		}
		tierFams = append(tierFams, f.Name)
		var labels []string
		for _, smp := range f.Samples {
			for _, l := range smp.Labels {
				labels = append(labels, l.Name+"="+l.Value)
			}
		}
		if got := strings.Join(labels, ","); got != "tier=vm,tier=ram" {
			t.Errorf("%s labels = %s, want tier=vm,tier=ram", f.Name, got)
		}
	}
	want := "circuitql_eval_tier_attempts_total circuitql_eval_tier_served_total circuitql_eval_tier_fallbacks_total"
	if got := strings.Join(tierFams, " "); got != want {
		t.Errorf("tier families = %s, want %s", got, want)
	}
}
