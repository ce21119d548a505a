package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/vm"
)

// median returns the middle of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestEngineDeadlineJudgesPlanAlone: a deadlined request for a plan gets
// the vm tier when its share fits many of that plan's evaluations,
// whatever the engine served before it. Two cases: 30 serves of a
// triangle plan over 16 tuples, 10-20 times the small plan's evaluation;
// and the first serves of eight cycle4 plans, each compiling its plan
// and program at tens of evaluations' cost. The deadline comes from the
// requested plan's evaluations measured on a second engine, so a slow
// build (-race) scales it with the code it times.
func TestEngineDeadlineJudgesPlanAlone(t *testing.T) {
	ctx := context.Background()
	large := Prepare(mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 7, 16))
	thirty := make([]Request, 30)
	for i := range thirty {
		thirty[i] = large
	}
	// Eight fingerprints of one cycle4 plan, by a non-binding salt DC.
	cycle4 := make([]Request, 8)
	for i := range cycle4 {
		cycle4[i] = storeReq(t, "cycle4")
		salt, err := query.ParseDC(cycle4[i].Query, fmt.Sprintf("R <= %d", 64+i))
		if err != nil {
			t.Fatal(err)
		}
		cycle4[i].DCs = append(cycle4[i].DCs, salt...)
	}

	probe := New(Config{})
	defer probe.Close()
	for _, tc := range []struct {
		name   string
		before []Request // served undeadlined first
		req    Request   // then requested 20 times under a deadline
	}{
		{"after-large-plan-serves", thirty, Prepare(mkReq(t, "Q(A,B) :- R(A,B), S(B)", 7, 4))},
		{"after-eight-plan-compiles", cycle4, cycle4[0]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{})
			defer e.Close()
			for i, r := range tc.before {
				if res := e.Serve(ctx, r); res.Err != nil || res.Tier != TierVM {
					t.Fatalf("serve %d: tier %q err %v, want a vm serve", i, res.Tier, res.Err)
				}
			}
			// The requested plan is compiled on e, if it is not yet, without
			// being evaluated there.
			if _, _, err := e.acquire(ctx, mustCanon(t, tc.req)); err != nil {
				t.Fatal(err)
			}
			var evals []time.Duration
			for i := 0; i < 10; i++ {
				res := probe.Serve(ctx, tc.req)
				if res.Err != nil || res.Tier != TierVM {
					t.Fatalf("probe %d: tier %q err %v, want a vm serve", i, res.Tier, res.Err)
				}
				if i > 0 {
					evals = append(evals, res.EvalTime)
				}
			}
			eval := median(evals)

			// A two-tier ladder gives the vm half of the deadline: 12 of the
			// plan's evaluations, less than one of the large plan's and under
			// half of a cycle4 compile (25-70 evaluations). A stall on a
			// loaded box can still cost one request its vm serve, so the test
			// asks for most of them, not all.
			deadline := 24 * eval
			vmServes := 0
			for i := 0; i < 20; i++ {
				dctx, cancel := context.WithTimeout(ctx, deadline)
				if res := e.Serve(dctx, tc.req); res.Tier == TierVM {
					vmServes++
				}
				cancel()
			}
			t.Logf("%d/20 vm serves under a %v deadline (one evaluation %v)", vmServes, deadline, eval)
			if vmServes < 15 {
				t.Fatalf("20 requests under a %v deadline: %d served from the vm tier (one evaluation %v)",
					deadline, vmServes, eval)
			}
		})
	}
}

// TestEngineWarmPlanBuildsOffTheClock: a store-loaded plan's vm program
// is built once, off the request's clock. Under a deadline whose vm
// share is shorter than the build but longer than an evaluation, the
// first attempts stop waiting for the build and fall through to RAM;
// the build runs on, and once it has had its time the plan serves from
// the vm tier. One build in all.
func TestEngineWarmPlanBuildsOffTheClock(t *testing.T) {
	ctx := context.Background()
	req := Prepare(storeReq(t, "cycle4"))
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(Config{Store: st})
	var evals []time.Duration
	for i := 0; i < 10; i++ {
		res := cold.Serve(ctx, req)
		if res.Err != nil || res.Tier != TierVM {
			t.Fatalf("cold serve %d: tier %q err %v, want a vm serve", i, res.Tier, res.Err)
		}
		if i > 0 {
			evals = append(evals, res.EvalTime)
		}
	}
	cold.Close()
	eval := median(evals)

	// The build, timed as the fastest of three on the stored plan.
	a, err := st.GetPlan(reqFP(t, req))
	if err != nil {
		t.Fatal(err)
	}
	compiled, _, err := a.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	build := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := vm.Compile(ctx, compiled.Obliv.C); err != nil {
			t.Fatal(err)
		}
		build = min(build, time.Since(start))
	}
	if build < 4*eval {
		t.Fatalf("build %v is under four evaluations (%v): no share fits between them", build, eval)
	}
	// The vm share is the geometric mean of the two: as many evaluations
	// as it is a fraction of the build.
	share := time.Duration(math.Sqrt(float64(build) * float64(eval)))
	deadline := 2 * share

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(16)
	e := New(Config{Store: st2, Tracer: tracer})
	defer e.Close()
	serve := func() Result {
		dctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		return e.Serve(dctx, req)
	}
	ent := func() *entry {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.cache.entries[reqFP(t, req)]
	}()
	built := func() bool {
		ent.vmMu.Lock()
		defer ent.vmMu.Unlock()
		return ent.vmProg != nil
	}
	// Requests back to back for three builds' time at least, and until
	// the program exists (a loaded box may stretch the build).
	start := time.Now()
	for n := 0; time.Since(start) < 3*build || !built(); n++ {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("after %d requests under a %v deadline (build %v, evaluation %v), the program is not built",
				n, deadline, build, eval)
		}
		serve()
	}
	vmServes := 0
	for i := 0; i < 20; i++ {
		if serve().Tier == TierVM {
			vmServes++
		}
	}
	t.Logf("warm cycle4: %d/20 vm serves under a %v deadline (build %v, evaluation %v)", vmServes, deadline, build, eval)
	if vmServes < 15 {
		t.Fatalf("20 requests under a %v deadline after the build: %d served from the vm tier (build %v, evaluation %v)",
			deadline, vmServes, build, eval)
	}
	if n := tracer.Aggregates()[obs.StageVMComp].Count; n != 1 {
		t.Fatalf("%d vm-compile spans, want one build", n)
	}
}
