package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"circuitql/internal/obs"
	"circuitql/internal/query"
)

// median returns the middle of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestEngineDeadlineJudgesPlanAlone: a deadlined request for a plan gets
// the vm tier when its share fits that plan's evaluations, whatever the
// engine served before it and wherever the plan came from. Three cases:
// 30 serves of a triangle plan over 16 tuples, 10-20 times the small
// plan's evaluation; the first serves of eight cycle4 plans, each
// compiling its plan and program at tens of evaluations' cost; and a
// cycle4 plan warm-loaded from a store, whose program is read with it,
// under a vm share of four evaluations — well under what compiling the
// program would cost — from its very first request on, with no vm
// compile anywhere. The deadline comes from the requested plan's
// evaluations measured on a second engine, so a slow build (-race)
// scales it with the code it times.
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
		evals  int       // the deadline, in the requested plan's evaluations
		warm   bool      // the plan is warm-loaded from a store, not compiled
	}{
		{"after-large-plan-serves", thirty, Prepare(mkReq(t, "Q(A,B) :- R(A,B), S(B)", 7, 4)), 24, false},
		{"after-eight-plan-compiles", cycle4, cycle4[0], 24, false},
		{"warm-loaded", nil, Prepare(storeReq(t, "cycle4")), 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := obs.NewTracer(16)
			var e *Engine
			if tc.warm {
				e = warmLoaded(t, tc.req, Config{Tracer: tracer})
			} else {
				e = New(Config{})
			}
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

			// A two-tier ladder gives the vm half of the deadline. For a
			// compiled plan that is 12 of the plan's evaluations, less than
			// one of the large plan's and under half of a cycle4 compile
			// (25-70 evaluations); for the warm-loaded one, four. A stall on
			// a loaded box can still cost one request its vm serve, so the
			// test asks for most of them, not all — but a warm-loaded plan's
			// first request must be one, as nothing is left to build.
			deadline := time.Duration(tc.evals) * eval
			vmServes := 0
			for i := 0; i < 20; i++ {
				dctx, cancel := context.WithTimeout(ctx, deadline)
				res := e.Serve(dctx, tc.req)
				cancel()
				if res.Tier == TierVM {
					vmServes++
				} else if i == 0 && tc.warm {
					t.Fatalf("the first request on the warm-loaded plan: tier %q err %v under a %v deadline (one evaluation %v)",
						res.Tier, res.Err, deadline, eval)
				}
			}
			t.Logf("%d/20 vm serves under a %v deadline (one evaluation %v)", vmServes, deadline, eval)
			if vmServes < 15 {
				t.Fatalf("20 requests under a %v deadline: %d served from the vm tier (one evaluation %v)",
					deadline, vmServes, eval)
			}
			if n := tracer.Aggregates()[obs.StageVMComp].Count; tc.warm && n != 0 {
				t.Fatalf("%d vm-compile spans on the warm-loaded plan, want none", n)
			}
		})
	}
}
