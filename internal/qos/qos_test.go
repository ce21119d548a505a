package qos

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"circuitql/internal/guard"
)

func TestPriorityContext(t *testing.T) {
	if got := PriorityOf(nil); got != PriorityNormal {
		t.Fatalf("nil ctx priority = %d, want normal", got)
	}
	if got := PriorityOf(context.Background()); got != PriorityNormal {
		t.Fatalf("unset priority = %d, want normal", got)
	}
	ctx := WithPriority(context.Background(), PriorityLow)
	if got := PriorityOf(ctx); got != PriorityLow {
		t.Fatalf("priority = %d, want low", got)
	}
}

func TestOverloadError(t *testing.T) {
	err := Overload(LaneMiss, ShedQueueFull, 120*time.Millisecond)
	if !errors.Is(err, guard.ErrOverloaded) {
		t.Fatalf("shed error %v does not match ErrOverloaded", err)
	}
	var oe *guard.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("shed error %v is not an *OverloadError", err)
	}
	if oe.Lane != "miss" || oe.Reason != "queue_full" || oe.RetryAfter != 120*time.Millisecond {
		t.Fatalf("unexpected overload fields: %+v", oe)
	}
	if !strings.Contains(err.Error(), "retry after") {
		t.Fatalf("error text lacks retry hint: %q", err)
	}
}

func TestRetryAfter(t *testing.T) {
	if got := RetryAfter(10, 2, 0); got != 0 {
		t.Fatalf("no mean service time should give no estimate, got %v", got)
	}
	if got := RetryAfter(10, 2, 20*time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("RetryAfter(10,2,20ms) = %v, want 100ms", got)
	}
	// Floor of one mean service time, even with an empty queue.
	if got := RetryAfter(0, 4, 8*time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("empty-queue RetryAfter = %v, want 8ms floor", got)
	}
}

func TestPolicyLevels(t *testing.T) {
	cases := []struct {
		name string
		load Load
		want Level
	}{
		{"idle", Load{HitDepth: 8, MissDepth: 4}, LevelNormal},
		{"half full hit lane", Load{HitQueue: 4, HitDepth: 8, MissDepth: 4}, LevelNormal},
		{"just under critical", Load{HitQueue: 5, HitDepth: 8, MissQueue: 2, MissDepth: 4}, LevelNormal},
		{"critical miss lane", Load{MissQueue: 3, MissDepth: 4, HitDepth: 8}, LevelCritical},
		{"critical hit lane", Load{HitQueue: 6, HitDepth: 8, MissDepth: 4}, LevelCritical},
		{"overfull", Load{HitQueue: 9, HitDepth: 8}, LevelCritical},
		{"no queues", Load{HitQueue: 1, MissQueue: 1}, LevelNormal},
	}
	for _, c := range cases {
		if got := c.load.Level(); got != c.want {
			t.Errorf("%s: level = %v, want %v", c.name, got, c.want)
		}
	}
	// The exported gauge value of critical is part of the /metrics
	// contract.
	if LevelCritical != 2 {
		t.Errorf("LevelCritical = %d, want 2", LevelCritical)
	}
}

func TestEstimatorEWMA(t *testing.T) {
	var e Estimator
	if e.Estimate() != 0 {
		t.Fatal("zero estimator should estimate 0")
	}
	e.Observe(80 * time.Millisecond)
	if got := e.Estimate(); got != 80*time.Millisecond {
		t.Fatalf("first observation should seed the average, got %v", got)
	}
	for i := 0; i < 64; i++ {
		e.Observe(8 * time.Millisecond)
	}
	got := e.Estimate()
	if got > 12*time.Millisecond || got < 7*time.Millisecond {
		t.Fatalf("EWMA did not converge toward 8ms: %v", got)
	}
}

func TestPlanTierNoDeadline(t *testing.T) {
	ctx := context.Background()
	tctx, cancel, skip, reason := PlanTier(ctx, 3, time.Hour)
	defer cancel()
	if skip || reason != nil {
		t.Fatalf("no deadline must never skip, got skip=%v reason=%v", skip, reason)
	}
	if tctx != ctx {
		t.Fatal("no deadline should leave ctx unwrapped")
	}
}

func TestPlanTierShares(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	// Three tiers left: the first attempt gets roughly a third.
	tctx, tcancel, skip, _ := PlanTier(ctx, 3, 0)
	defer tcancel()
	if skip {
		t.Fatal("unknown estimate must not skip")
	}
	d, ok := tctx.Deadline()
	if !ok {
		t.Fatal("tier context lost the deadline")
	}
	share := time.Until(d)
	if share > 400*time.Millisecond || share < 200*time.Millisecond {
		t.Fatalf("3-tier share = %v, want ~333ms", share)
	}

	// Last tier: full remaining deadline, no wrapping.
	lctx, lcancel, skip, _ := PlanTier(ctx, 1, time.Hour)
	defer lcancel()
	if skip {
		t.Fatal("last tier must never skip")
	}
	if lctx != ctx {
		t.Fatal("last tier should run under the request context itself")
	}
}

func TestPlanTierSkipsDoomedTier(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, tcancel, skip, reason := PlanTier(ctx, 2, time.Hour)
	defer tcancel()
	if !skip {
		t.Fatal("a 1h-estimated tier with 100ms remaining must be skipped")
	}
	if !errors.Is(reason, guard.ErrBudgetExceeded) {
		t.Fatalf("skip reason %v must classify as ErrBudgetExceeded", reason)
	}
}

func TestLedgerSnapshotAndFamilies(t *testing.T) {
	var l Ledger
	l.Admit(LaneHit)
	l.Admit(LaneHit)
	l.Admit(LaneMiss)
	l.Shed(LaneMiss, ShedQueueFull)
	l.Shed(LaneHit, ShedPriority)
	l.Deadline(StageQueued)
	l.Deadline(StageOblivious)
	l.TierSkip()

	s := l.Snapshot()
	if s.Admitted["hit"] != 2 || s.Admitted["miss"] != 1 {
		t.Fatalf("admitted = %v", s.Admitted)
	}
	if s.TotalAdmitted() != 3 || s.TotalShed() != 2 || s.TotalDeadline() != 2 {
		t.Fatalf("totals: admitted=%d shed=%d deadline=%d", s.TotalAdmitted(), s.TotalShed(), s.TotalDeadline())
	}
	if s.Shed["miss"]["queue_full"] != 1 || s.Shed["hit"]["priority"] != 1 {
		t.Fatalf("shed = %v", s.Shed)
	}
	if s.Deadline["queued"] != 1 || s.Deadline["oblivious"] != 1 || s.TierSkip != 1 {
		t.Fatalf("counters: %+v", s)
	}

	s.Lanes = []LaneStats{{Lane: "hit", Queued: 1, Depth: 8, Workers: 4, InFlight: 2}}
	s.Level = LevelCritical
	fams := s.Families()
	byName := map[string]bool{}
	for _, f := range fams {
		byName[f.Name] = true
		if len(f.Samples) == 0 {
			t.Errorf("family %s has no samples", f.Name)
		}
	}
	for _, want := range []string{
		"circuitql_qos_admitted_total", "circuitql_qos_shed_total",
		"circuitql_qos_deadline_exceeded_total", "circuitql_qos_degraded_total",
		"circuitql_qos_lane_queue", "circuitql_qos_degradation_level",
	} {
		if !byName[want] {
			t.Errorf("missing family %s", want)
		}
	}
}
