package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"circuitql/internal/guard"
)

func TestPriorityContext(t *testing.T) {
	if got := priorityOf(nil); got != PriorityNormal {
		t.Fatalf("nil ctx priority = %d, want normal", got)
	}
	if got := priorityOf(context.Background()); got != PriorityNormal {
		t.Fatalf("unset priority = %d, want normal", got)
	}
	ctx := WithPriority(context.Background(), PriorityLow)
	if got := priorityOf(ctx); got != PriorityLow {
		t.Fatalf("priority = %d, want low", got)
	}
}

// lanesEngine is an engine with no workers whose lanes hold hit and miss
// queued jobs out of queues of hitDepth and missDepth, for the
// admission arithmetic alone.
func lanesEngine(policy ShedPolicy, hit, hitDepth, miss, missDepth int) *Engine {
	e := &Engine{
		cfg:      Config{Workers: 2, MissWorkers: 1, ShedPolicy: policy},
		jobsHit:  make(chan *job, hitDepth),
		jobsMiss: make(chan *job, missDepth),
	}
	for i := 0; i < hit; i++ {
		e.jobsHit <- nil
	}
	for i := 0; i < miss; i++ {
		e.jobsMiss <- nil
	}
	return e
}

// TestOverloadError: a shed request resolves with a typed
// *guard.OverloadError carrying its lane, reason and retry hint, and is
// counted once under that lane and reason.
func TestOverloadError(t *testing.T) {
	e := lanesEngine(ShedOnFull, 0, 1, 0, 1)
	out := make(chan Result, 1)
	e.reject(out, laneMiss, shedQueueFull, 120*time.Millisecond)
	err := (<-out).Err
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
	if n := e.shed[laneMiss][shedQueueFull].Load(); n != 1 {
		t.Fatalf("miss/queue_full sheds = %d, want 1", n)
	}
}

func TestRetryAfter(t *testing.T) {
	e := lanesEngine(ShedOnFull, 10, 16, 0, 4)
	if got := e.retryAfter(laneHit); got != 0 {
		t.Fatalf("no mean service time should give no estimate, got %v", got)
	}
	e.estServe[laneHit].observe(20 * time.Millisecond)
	if got := e.retryAfter(laneHit); got != 100*time.Millisecond {
		t.Fatalf("10 queued, 2 workers, 20ms each: retry after %v, want 100ms", got)
	}
	// Floor of one mean service time, even with an empty queue.
	e.estServe[laneMiss].observe(8 * time.Millisecond)
	if got := e.retryAfter(laneMiss); got != 8*time.Millisecond {
		t.Fatalf("empty-queue retry after = %v, want 8ms floor", got)
	}
}

func TestPolicyLevels(t *testing.T) {
	cases := []struct {
		name                           string
		hit, hitDepth, miss, missDepth int
		want                           bool
	}{
		{"idle", 0, 8, 0, 4, false},
		{"half full hit lane", 4, 8, 0, 4, false},
		{"just under critical", 5, 8, 2, 4, false},
		{"critical miss lane", 0, 8, 3, 4, true},
		{"critical hit lane", 6, 8, 0, 4, true},
		{"full", 8, 8, 4, 4, true},
	}
	for _, c := range cases {
		if got := lanesEngine(ShedAdaptive, c.hit, c.hitDepth, c.miss, c.missDepth).critical(); got != c.want {
			t.Errorf("%s: critical = %v, want %v", c.name, got, c.want)
		}
		// Only ShedAdaptive acts on load, and only it reports it.
		if lanesEngine(ShedOnFull, c.hit, c.hitDepth, c.miss, c.missDepth).critical() {
			t.Errorf("%s: ShedOnFull reported critical", c.name)
		}
	}
	// The exported gauge value of critical is part of the /metrics
	// contract.
	for _, f := range (Metrics{Critical: true}).Families() {
		if f.Name == "circuitql_qos_degradation_level" && f.Samples[0].Value != 2 {
			t.Errorf("critical degradation level = %v, want 2", f.Samples[0].Value)
		}
	}
}

func TestEstimatorEWMA(t *testing.T) {
	var e estimator
	if e.estimate() != 0 {
		t.Fatal("zero estimator should estimate 0")
	}
	e.observe(80 * time.Millisecond)
	if got := e.estimate(); got != 80*time.Millisecond {
		t.Fatalf("first observation should seed the average, got %v", got)
	}
	for i := 0; i < 64; i++ {
		e.observe(8 * time.Millisecond)
	}
	got := e.estimate()
	if got > 12*time.Millisecond || got < 7*time.Millisecond {
		t.Fatalf("EWMA did not converge toward 8ms: %v", got)
	}
}

func TestPlanTierNoDeadline(t *testing.T) {
	ctx := context.Background()
	tctx, cancel := PlanTier(ctx, 3)
	defer cancel()
	if tctx != ctx {
		t.Fatal("no deadline should leave ctx unwrapped")
	}
}

func TestPlanTierShares(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	// Three tiers left: the first attempt gets roughly a third.
	tctx, tcancel := PlanTier(ctx, 3)
	defer tcancel()
	d, ok := tctx.Deadline()
	if !ok {
		t.Fatal("tier context lost the deadline")
	}
	share := time.Until(d)
	if share > 400*time.Millisecond || share < 200*time.Millisecond {
		t.Fatalf("3-tier share = %v, want ~333ms", share)
	}

	// Last tier: full remaining deadline, no wrapping.
	lctx, lcancel := PlanTier(ctx, 1)
	defer lcancel()
	if lctx != ctx {
		t.Fatal("last tier should run under the request context itself")
	}
}
