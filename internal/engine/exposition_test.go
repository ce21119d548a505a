package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// unpinnedValues are the families whose values the script does not
// decide: the uptime clock and the cached gate total, a function of the
// plans' sizes (pinned by the store's golden plans instead).
var unpinnedValues = map[string]bool{
	"circuitql_uptime_seconds":   true,
	"circuitql_plan_cache_gates": true,
}

// renderExposition writes every family the registry gathers as a name,
// type and help line followed by one line per sample: its label set and
// its value (a histogram's observation count; "-" where unpinned).
func renderExposition(reg *obs.Registry) string {
	var b strings.Builder
	for _, f := range reg.Gather() {
		fmt.Fprintf(&b, "%s %s %q\n", f.Name, f.Type, f.Help)
		for _, s := range f.Samples {
			lbls := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				lbls[i] = l.Name + "=" + l.Value
			}
			val := fmt.Sprint(s.Value)
			switch {
			case unpinnedValues[f.Name]:
				val = "-"
			case f.Type == obs.TypeHistogram:
				val = fmt.Sprintf("count=%d", s.Count)
			}
			fmt.Fprintf(&b, "  {%s} %s\n", strings.Join(lbls, ","), val)
		}
	}
	return b.String()
}

// TestExpositionGolden runs a fixed script on one engine — a miss, two
// hits, a vm fault served by RAM, a deadline that expires in the queue
// and a ShedOnFull shed — and compares what its registry exposes with
// testdata/exposition.golden: every family's name, type, help and label
// sets, and every value the script decides. -update rewrites the file.
func TestExpositionGolden(t *testing.T) {
	e := New(Config{
		Workers: 1, MissWorkers: 1, MissQueueDepth: 1, ShedPolicy: ShedOnFull,
		BatchMaxSize: 2, BatchWindow: time.Millisecond,
	})
	defer e.Close()
	reg := obs.NewRegistry()
	reg.Register(func() []obs.Family { return e.Metrics().Families() })

	bg := context.Background()
	tri := mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 61, 8)
	serve := func(ctx context.Context, req Request, tier string) {
		t.Helper()
		if res := e.Serve(ctx, req); res.Err != nil || res.Tier != tier {
			t.Fatalf("%s: err=%v tier=%q, want %s", req.Query, res.Err, res.Tier, tier)
		}
	}

	serve(bg, tri, TierVM) // the miss: compile, then a vm batch of one
	serve(bg, tri, TierVM) // two hits
	serve(bg, tri, TierVM)

	in := faultinject.New()
	in.FailAt(faultinject.SiteWordGate, 1, nil)
	serve(faultinject.WithInjector(bg, in), tri, TierRAM) // vm fault → RAM

	expired, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel()
	if res := <-e.Submit(expired, tri); !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("expired request: %v, want a queued deadline", res.Err)
	}

	parked, resolve := blockMissLane(t, e, mkReq(t, "Q(A,B) :- R(A,B), S(A,B)", 62, 8))
	queued := e.Submit(bg, mkReq(t, "Q(A,B,C) :- R(A,B), S(B,C)", 63, 8))
	if res := <-e.Submit(bg, mkReq(t, "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)", 64, 8)); !errors.Is(res.Err, guard.ErrOverloaded) {
		t.Fatalf("third miss on a full miss lane: %v, want a queue_full shed", res.Err)
	}
	resolve()
	if res := <-parked; res.Err != nil || res.Tier != TierRAM {
		t.Fatalf("parked request: err=%v tier=%q, want ram", res.Err, res.Tier)
	}
	if res := <-queued; res.Err != nil || res.Tier != TierVM {
		t.Fatalf("queued request: err=%v tier=%q, want vm", res.Err, res.Tier)
	}

	got := renderExposition(reg)
	path := filepath.Join("testdata", "exposition.golden")
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
