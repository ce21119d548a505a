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
		for _, c := range root.Children() {
			if c.Start.Before(root.Start) || c.Start.Add(c.Duration()).After(end) {
				t.Fatalf("%s [%v +%v] lies outside serve [%v +%v]", c.Name, c.Start, c.Duration(), root.Start, root.Duration())
			}
			if c.Duration() <= 0 {
				t.Fatalf("%s has non-positive duration %v", c.Name, c.Duration())
			}
			sum += c.Duration()
		}
		if sum > root.Duration() {
			t.Fatalf("children sum to %v, more than serve's %v", sum, root.Duration())
		}
	}
}
