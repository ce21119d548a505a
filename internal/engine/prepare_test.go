package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/workload"
)

// Prepare's contract: a prepared request is a plain request minus the
// work (Query, DCs) determine. These tests hold the memo to that — same
// answers, same accounting, and never a plan for a pair the request no
// longer carries.

// sameAttempts reports whether two tier-attempt lists name the same
// tiers with the same outcomes.
func sameAttempts(a, b []TierAttempt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tier != b[i].Tier || (a[i].Err == nil) != (b[i].Err == nil) ||
			(a[i].Err != nil && a[i].Err.Error() != b[i].Err.Error()) {
			return false
		}
	}
	return true
}

// TestPrepareAgreesWithPlain: for every catalog query (bar bowtie) under uniform and
// under derived constraints, two fresh engines — one fed the plain
// request, one the prepared — agree, cold and warm, on everything a
// caller can see of how the request was served.
func TestPrepareAgreesWithPlain(t *testing.T) {
	nonEmpty := 0
	for _, ent := range query.Catalog() {
		q := ent.Query
		if len(q.Atoms) > 4 {
			continue // bowtie's compile takes minutes
		}
		// Three tuples keep the uniform-bound plans small: star3's bound
		// is N³, and its compile goes from 0.2 s to 3 s between 3 and 4.
		const n = 3
		db := workload.ForQuery(q, 9, n)
		for name, dcs := range map[string]query.DCSet{
			"uniform": query.Cardinalities(q, float64(n)),
			"derived": mustDerive(t, q, db),
		} {
			plain := Request{Query: q, DCs: dcs, DB: db}
			ePlain, ePrep := New(Config{}), New(Config{})
			want, err := query.EvaluateCtx(context.Background(), q, db)
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() > 0 {
				nonEmpty++
			}
			for _, temp := range []string{"cold", "warm"} {
				a := ePlain.Serve(context.Background(), plain)
				b := ePrep.Serve(context.Background(), Prepare(plain))
				if a.Err != nil || b.Err != nil {
					t.Fatalf("%s/%s %s: plain err=%v, prepared err=%v", ent.Name, name, temp, a.Err, b.Err)
				}
				if !a.Output.Equal(want) || !b.Output.Equal(a.Output) {
					t.Fatalf("%s/%s %s: outputs differ: plain %v, prepared %v, RAM %v", ent.Name, name, temp, a.Output, b.Output, want)
				}
				if a.Fingerprint != b.Fingerprint || a.Tier != b.Tier || a.CacheHit != b.CacheHit ||
					a.CacheHit != (temp == "warm") || !sameAttempts(a.Attempts, b.Attempts) {
					t.Fatalf("%s/%s %s: plain {fp %s tier %s hit %v attempts %v}, prepared {fp %s tier %s hit %v attempts %v}",
						ent.Name, name, temp, a.Fingerprint.Short(), a.Tier, a.CacheHit, a.Attempts,
						b.Fingerprint.Short(), b.Tier, b.CacheHit, b.Attempts)
				}
			}
			if mp, mq := ePlain.Metrics(), ePrep.Metrics(); mp.Compiles != mq.Compiles || mp.Hits != mq.Hits ||
				mp.Misses != mq.Misses || mp.Requests != mq.Requests || mp.Failed != mq.Failed {
				t.Fatalf("%s/%s: counters differ: plain %+v, prepared %+v", ent.Name, name, mp, mq)
			}
			ePlain.Close()
			ePrep.Close()
		}
	}
	if nonEmpty < 12 {
		t.Fatalf("only %d of the cases had a non-empty answer: the comparison is close to vacuous", nonEmpty)
	}
}

// TestPrepareSwappedPairServedPlain: a request whose Query or DCs was
// replaced after Prepare no longer matches its memo and is served as a
// plain request — the right answer for the pair it carries now, on that
// pair's own plan, never the old one.
func TestPrepareSwappedPairServedPlain(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	path := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C)", 4, 8)
	prepared := Prepare(path)
	first := e.Serve(context.Background(), prepared)
	if first.Err != nil {
		t.Fatal(first.Err)
	}

	// Same relation names, another query: the old plan would evaluate
	// (and answer wrongly) if the memo were trusted.
	swapped := prepared
	swapped.Query = query.MustParse("Q(B,A) :- S(A,B), R(B,A)")
	swapped.DCs = mustDerive(t, swapped.Query, swapped.DB)
	res := e.Serve(context.Background(), swapped)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := query.EvaluateCtx(context.Background(), swapped.Query, swapped.DB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint == first.Fingerprint || res.CacheHit || !res.Output.Equal(want) {
		t.Fatalf("swapped query: fp %s (old %s) hit=%v output %v, want a fresh plan answering %v",
			res.Fingerprint.Short(), first.Fingerprint.Short(), res.CacheHit, res.Output, want)
	}

	// Same query, another constraint set (an equal copy plus one loose
	// bound): a different pair, so a different fingerprint.
	loosened := prepared
	loosened.DCs = append(append(query.DCSet(nil), path.DCs...),
		query.DegreeConstraint{Y: path.Query.Atoms[0].VarSet(), N: 1000})
	res = e.Serve(context.Background(), loosened)
	wantFP, err := query.QueryFingerprint(loosened.Query, loosened.DCs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Fingerprint != wantFP || res.Fingerprint == first.Fingerprint || res.CacheHit {
		t.Fatalf("swapped DCs: err=%v fp %s hit=%v, want fresh fingerprint %s", res.Err, res.Fingerprint.Short(), res.CacheHit, wantFP.Short())
	}

	// An equal copy of the constraint slice is not the slice Prepare saw:
	// served plain, which finds the same plan.
	copied := prepared
	copied.DCs = append(query.DCSet(nil), path.DCs...)
	if copied.prep.of(copied) {
		t.Fatal("a copied constraint slice matched the memo")
	}
	if res = e.Serve(context.Background(), copied); res.Err != nil || res.Fingerprint != first.Fingerprint || !res.CacheHit {
		t.Fatalf("copied DCs: err=%v fp %s hit=%v, want a hit on %s", res.Err, res.Fingerprint.Short(), res.CacheHit, first.Fingerprint.Short())
	}

	// Only the database changed: the memo holds, the answer is the new
	// database's.
	other := prepared
	other.DB = workload.ForQuery(path.Query, 4, 5)
	if !other.prep.of(other) {
		t.Fatal("changing the database invalidated the memo")
	}
	want, err = query.EvaluateCtx(context.Background(), other.Query, other.DB)
	if err != nil {
		t.Fatal(err)
	}
	if res = e.Serve(context.Background(), other); res.Err != nil || !res.CacheHit || !res.Output.Equal(want) {
		t.Fatalf("new database: err=%v hit=%v output %v, want %v", res.Err, res.CacheHit, res.Output, want)
	}
	// One that violates the compiled constraints is still refused: the
	// database check is not memoized.
	other.DB = workload.ForQuery(path.Query, 4, 40)
	if res = e.Serve(context.Background(), other); !errors.Is(res.Err, guard.ErrInvalidInput) {
		t.Fatalf("non-conforming database on a prepared request: err=%v, want ErrInvalidInput", res.Err)
	}
}

// TestPrepareFailuresMatchPlain: a request that cannot be canonicalized
// — a nil Query, whose panic is contained, and constraints that fail
// validation — resolves prepared exactly as it does plain: the same
// typed error, one Request and one Failed each.
func TestPrepareFailuresMatchPlain(t *testing.T) {
	q := query.Triangle()
	bad := Request{Query: q, DCs: query.DCSet{{X: 0, Y: query.SetOf(0), N: 4}}} // Y is no atom's variable set
	for name, c := range map[string]struct {
		req  Request
		kind error
	}{
		"nil query": {Request{}, guard.ErrInternal},
		"bad DCs":   {bad, guard.ErrInvalidInput},
	} {
		e := New(Config{})
		plain := e.Serve(context.Background(), c.req)
		before := e.Metrics()
		prepared := e.Serve(context.Background(), Prepare(c.req))
		after := e.Metrics()
		e.Close()
		if !errors.Is(plain.Err, c.kind) || !errors.Is(prepared.Err, c.kind) {
			t.Fatalf("%s: plain err=%v, prepared err=%v, want both %v", name, plain.Err, prepared.Err, c.kind)
		}
		if name == "bad DCs" && plain.Err.Error() != prepared.Err.Error() {
			t.Fatalf("%s: plain %q, prepared %q", name, plain.Err, prepared.Err)
		}
		if before.Requests != 1 || before.Failed != 1 || after.Requests != 2 || after.Failed != 2 {
			t.Fatalf("%s: requests/failed %d/%d after the plain request, %d/%d after the prepared one; want 1/1 and 2/2",
				name, before.Requests, before.Failed, after.Requests, after.Failed)
		}
	}
}

// TestPreparedRequestConcurrent: 64 goroutines submit one prepared
// request — one shared *prepared, canonical form and rename plan — to a
// coalescing engine. Under -race this is the check that the
// memo is read-only once Prepare returns.
func TestPreparedRequestConcurrent(t *testing.T) {
	e := New(Config{BatchMaxSize: 4, QueueDepth: 128})
	defer e.Close()
	req := Prepare(mkReq(t, "Q(X,Y,Z) :- S(Y,Z), T(X,Z), R(X,Y)", 7, 8))
	want, err := query.EvaluateCtx(context.Background(), req.Query, req.DB)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 64, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res := e.Serve(context.Background(), req)
				if res.Err != nil {
					t.Errorf("serve: %v", res.Err)
					return
				}
				if !res.Output.Equal(want) {
					t.Errorf("wrong answer: %v, want %v", res.Output, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := e.Metrics(); m.Compiles != 1 || m.Requests != goroutines*perG {
		t.Fatalf("compiles=%d requests=%d, want 1 and %d", m.Compiles, m.Requests, goroutines*perG)
	}
}

// TestPreparedHitAllocs bounds what a prepared cache hit allocates on
// R(A,B),S(A,B) at 4 tuples, the benchmark's smallest hot shape: 416
// allocations per Submit before Prepare existed, of which canonicalizing
// was ~195 and the copying database check ~80. A regression that puts
// either back on the hit path trips the bound. Skipped under -race,
// which changes what escapes.
func TestPreparedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := New(Config{})
	defer e.Close()
	plain := mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", 1, 4)
	req := Prepare(plain)
	if res := e.Serve(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	hit := func(r Request) func() {
		return func() {
			if res := <-e.Submit(context.Background(), r); res.Err != nil || !res.CacheHit {
				t.Fatalf("err=%v hit=%v", res.Err, res.CacheHit)
			}
		}
	}
	prepared, unprepared := testing.AllocsPerRun(200, hit(req)), testing.AllocsPerRun(200, hit(plain))
	t.Logf("allocations per cache hit: prepared %.0f, plain %.0f", prepared, unprepared)
	const bound = 150
	if prepared > bound {
		t.Fatalf("a prepared cache hit allocates %.0f times, bound %d", prepared, bound)
	}
	if unprepared < prepared+100 {
		t.Fatalf("a plain hit allocates %.0f, a prepared one %.0f: the memo is not saving the canonicalization", unprepared, prepared)
	}
}

// renameOutputRef is renameOutput as it was when every request rebuilt
// its own rename plan: the reference the memoized plan is held to.
func renameOutputRef(out *relation.Relation, canon *query.Canonical, reqQ *query.Query) *relation.Relation {
	if out == nil || reqQ.Free.Empty() {
		return out
	}
	m := make(map[string]string, reqQ.Free.Len())
	names := make([]string, 0, reqQ.Free.Len())
	for _, v := range reqQ.Free.Vars() {
		reqName := reqQ.VarNames[v]
		m[canon.Query.VarNames[canon.VarMap[v]]] = reqName
		names = append(names, reqName)
	}
	return out.Rename(m).Project(names...)
}

// FuzzPrepare is FuzzFingerprint's arm for the memo (it lives here
// because package query cannot import the engine): for any string the
// parser accepts, under uniform or no constraints, Prepare holds exactly
// what query.Canonicalize returns for the pair — or fails exactly when
// it fails — the memo matches the request it was made from, and the
// memoized rename plan maps a canonical-schema relation as the
// per-request one did.
func FuzzPrepare(f *testing.F) {
	for _, s := range []string{
		"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
		"Q() :- R(A,B)",
		"Q(A) :- R(A,A)",
		"Q(A,B) :- R(A,B), R(B,A).",
		"Q(X1, Y_2) :- Edge(X1, Y_2)",
		"Q(A,B,C) :- R(A,B), R(B,C), R(C,A)",
		"Q(C,A) :- R(A,B), S(B,C)",
		"Q(A,B,C) :- R(A,B), R(A,B), S(B,C)",
	} {
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, src string, uniform bool) {
		if len(src) > 4096 {
			return
		}
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		var dcs query.DCSet
		if uniform {
			dcs = query.Cardinalities(q, 16)
		}
		req := Prepare(Request{Query: q, DCs: dcs})
		p := req.prep
		if !p.of(req) {
			t.Fatalf("the memo does not match the request it was made from (src %q)", src)
		}
		want, err := query.Canonicalize(q, dcs)
		if (err != nil) != (p.err != nil) {
			t.Fatalf("Canonicalize err=%v, Prepare err=%v (src %q)", err, p.err, src)
		}
		if err != nil {
			if !errors.Is(p.err, guard.ErrInvalidInput) || p.canon != nil {
				t.Fatalf("failed Prepare holds canon=%v err=%v (src %q)", p.canon, p.err, src)
			}
			return
		}
		if p.canon.FP != want.FP || p.canon.Complete != want.Complete ||
			p.canon.Query.String() != want.Query.String() || !slices.Equal(p.canon.VarMap, want.VarMap) ||
			!slices.Equal(p.canon.DCs, want.DCs) {
			t.Fatalf("Prepare holds %+v, Canonicalize returns %+v (src %q)", p.canon, want, src)
		}
		// A canonical-schema relation, columns in canonical order, each
		// row distinct in every column.
		out := relation.New(want.Query.Free.Names(want.Query.VarNames)...)
		for r := int64(0); r < 3; r++ {
			row := make([]int64, out.Arity())
			for c := range row {
				row[c] = 10*int64(c) + r
			}
			out.Insert(row...)
		}
		got, ref := renameOutput(out, p), renameOutputRef(out, want, q)
		if !slices.Equal(got.Schema(), ref.Schema()) || !got.Equal(ref) {
			t.Fatalf("memoized rename plan gives %v, per-request plan %v (src %q)", got, ref, src)
		}
	})
}

// BenchmarkSubmitHit is one warm cache hit through Submit, plain and
// prepared, on the benchmark's hot shapes (R(A,B),S(A,B) at 4 tuples,
// the triangle at 16): the difference is what Prepare takes off a
// request.
func BenchmarkSubmitHit(b *testing.B) {
	for _, c := range []struct {
		name, src string
		n         int
	}{
		{"pair4", "Q(A,B) :- R(A,B), S(A,B)", 4},
		{"triangle16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
	} {
		e := New(Config{})
		plain := mkReq(b, c.src, 1, c.n)
		if res := e.Serve(context.Background(), plain); res.Err != nil {
			b.Fatal(res.Err)
		}
		for name, req := range map[string]Request{"plain": plain, "prepared": Prepare(plain)} {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res := <-e.Submit(context.Background(), req); res.Err != nil || !res.CacheHit {
						b.Fatalf("err=%v hit=%v", res.Err, res.CacheHit)
					}
				}
			})
		}
		e.Close()
	}
}
