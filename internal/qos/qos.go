// Package qos is the overload-protection policy layer of the serving
// engine: admission lanes, priority shedding, deadline budgets for the
// tier ladder, and the counters that make shed/degrade decisions
// auditable.
//
// The engine's tiered evaluator (vm → RAM) gives a saturated
// server a fallback that needs no circuit: a request near its deadline
// should skip to the RAM tier or be shed with a typed error, never
// block every cached hit behind one expensive PANDA compile. What a
// compile builds is never a function of load — the plan is a function
// of (Q, DC) alone. This package holds the policy half of that
// machinery — classification, the one threshold, deadline arithmetic,
// counters — while internal/engine owns the mechanism (queues, worker
// pools, the plan cache).
//
// Design points:
//
//   - Requests are classed into two admission lanes by expected cost:
//     LaneHit (a cached plan exists — microseconds of evaluation) and
//     LaneMiss (a compile is needed or in flight — milliseconds to
//     minutes). Each lane has its own queue depth and concurrency cap,
//     so a burst of expensive misses cannot starve cached hits.
//   - When a lane is full the request is shed with a typed
//     *guard.OverloadError carrying a retry-after hint, rather than
//     queued unboundedly or blocked indefinitely.
//   - Deadlines propagate as per-tier shares: a request with t
//     remaining and k tiers left gives the next tier t/k — on the
//     two-rung ladder the circuit gets half — so a request near its
//     deadline skips straight to the RAM tier instead of timing out
//     mid-circuit; each such skip is counted (Ledger.TierSkip, exported
//     as circuitql_qos_degraded_total{action="tier_skip"}). The engine
//     counts tier attempts, serves and fallbacks itself.
//   - Load.Level grades queue occupancy; at LevelCritical (the fuller
//     lane three-quarters full) an adaptive engine sheds
//     below-normal-priority work before the lane overflows.
package qos

import (
	"context"
	"time"

	"circuitql/internal/guard"
)

// Lane classifies a request by expected cost.
type Lane int

// Admission lanes, cheap first.
const (
	// LaneHit: the request holds a cached plan (found at admission); it
	// only pays evaluation.
	LaneHit Lane = iota
	// LaneMiss: a compile (or a wait on someone else's compile) is
	// expected.
	LaneMiss
	// NumLanes sizes per-lane arrays.
	NumLanes
)

// String names the lane for labels and error messages.
func (l Lane) String() string {
	switch l {
	case LaneHit:
		return "hit"
	case LaneMiss:
		return "miss"
	}
	return "unknown"
}

// Priority orders requests for shedding: under heavy load the lowest
// priorities are rejected first. The zero value is PriorityNormal.
type Priority int

// Priorities, shed lowest first.
const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

type priorityKey struct{}

// WithPriority attaches a scheduling priority to the context; admission
// control sheds lower priorities first under pressure.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityOf returns the context's priority (PriorityNormal when unset
// or ctx is nil).
func PriorityOf(ctx context.Context) Priority {
	if ctx == nil {
		return PriorityNormal
	}
	p, _ := ctx.Value(priorityKey{}).(Priority)
	return p
}

// Overload builds the typed shed error for a lane, reason, and
// retry-after hint.
func Overload(lane Lane, reason ShedReason, retryAfter time.Duration) error {
	return &guard.OverloadError{Lane: lane.String(), Reason: reason.String(), RetryAfter: retryAfter}
}

// RetryAfter estimates when a shed lane is likely to have capacity
// again: the queued work ahead divided by the lane's service rate, with
// a floor of one mean service time. Zero when no estimate is possible.
func RetryAfter(queued, workers int, meanService time.Duration) time.Duration {
	if meanService <= 0 || workers <= 0 {
		return 0
	}
	if queued < 0 {
		queued = 0
	}
	est := meanService * time.Duration(queued) / time.Duration(workers)
	if est < meanService {
		est = meanService
	}
	return est
}
