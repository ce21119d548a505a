package engine

import (
	"context"
	"time"

	"circuitql/internal/guard"
)

// lane classifies a request by expected cost. Each lane has its own
// queue depth and worker count, so a burst of expensive misses cannot
// starve cached hits.
type lane int

const (
	// laneHit: the request holds a cached plan (found at admission); it
	// only pays evaluation.
	laneHit lane = iota
	// laneMiss: a compile (or a wait on someone else's compile) is
	// expected.
	laneMiss
	numLanes
)

// String names the lane for labels and error messages.
func (l lane) String() string {
	if l == laneHit {
		return "hit"
	}
	return "miss"
}

// Priority orders requests for shedding: under ShedAdaptive and
// critical load the lowest priorities are rejected first. The zero
// value is PriorityNormal.
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

// priorityOf returns the context's priority (PriorityNormal when unset
// or ctx is nil).
func priorityOf(ctx context.Context) Priority {
	if ctx == nil {
		return PriorityNormal
	}
	p, _ := ctx.Value(priorityKey{}).(Priority)
	return p
}

// shedReason says why admission rejected a request.
type shedReason int

const (
	// shedQueueFull: the classified lane's queue was at capacity.
	shedQueueFull shedReason = iota
	// shedPriority: the lanes were critical and the request's priority
	// was below normal.
	shedPriority
	// shedDraining: the engine was shutting down. Under a shedding
	// policy a draining replica rejects new work with a typed overload
	// error — "retry elsewhere" — rather than an input error.
	shedDraining
	numShedReasons
)

// String names the reason for labels.
func (r shedReason) String() string {
	switch r {
	case shedQueueFull:
		return "queue_full"
	case shedPriority:
		return "priority"
	}
	return "draining"
}

// critical reports whether ShedAdaptive should shed below-normal
// priorities: the fuller lane's queue is at least three-quarters full.
// Other policies are never critical.
func (e *Engine) critical() bool {
	if e.cfg.ShedPolicy != ShedAdaptive {
		return false
	}
	full := func(jobs chan *job) bool { return 4*len(jobs) >= 3*cap(jobs) }
	return full(e.jobsHit) || full(e.jobsMiss)
}

// retryAfter estimates when lane l will have capacity again: the queued
// work ahead divided by the lane's workers, at the lane's mean service
// time, and never less than one mean service time. Zero before the lane
// has served a request.
func (e *Engine) retryAfter(l lane) time.Duration {
	queued, workers := len(e.jobsHit), e.cfg.Workers
	if l == laneMiss {
		queued, workers = len(e.jobsMiss), e.cfg.MissWorkers
	}
	mean := e.estServe[l].estimate()
	return max(mean, mean*time.Duration(queued)/time.Duration(workers))
}

// reject counts one request shed from lane l and resolves it with the
// typed overload error.
func (e *Engine) reject(out chan<- Result, l lane, r shedReason, retryAfter time.Duration) {
	e.shed[l][r].Add(1)
	out <- Result{Err: &guard.OverloadError{Lane: l.String(), Reason: r.String(), RetryAfter: retryAfter}}
}
