package engine

import (
	"context"
	"sync/atomic"
	"time"
)

// deadlineStage says where a request's deadline expired.
type deadlineStage int

// Deadline stages, in request order.
const (
	// stageQueued: the deadline expired before a worker picked the
	// request up.
	stageQueued deadlineStage = iota
	// stageCompile: it expired while waiting on (or leading) a compile
	// flight.
	stageCompile
	// stageOblivious / stageRAM: it expired during that tier's
	// evaluation (the vm runs the plan's oblivious circuit).
	stageOblivious
	stageRAM
	numDeadlineStages
)

// String names the stage for labels.
func (s deadlineStage) String() string {
	return [numDeadlineStages]string{"queued", "compile", "oblivious", "ram"}[s]
}

// estimator is a lock-free exponential moving average of recent
// durations (α = 1/8): a lane's service time, from which retryAfter
// predicts when a shed lane will have room. The zero value estimates 0
// ("unknown").
type estimator struct {
	ns atomic.Int64
}

// observe folds one duration into the average.
func (e *estimator) observe(d time.Duration) {
	for {
		old := e.ns.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if next == 0 {
			next = 1 // keep "has observations" distinguishable from zero value
		}
		if e.ns.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimate returns the current average (0: no observations yet).
func (e *estimator) estimate() time.Duration {
	return time.Duration(e.ns.Load())
}

// PlanTier bounds the next tier attempt by its share of the request's
// deadline. tiersLeft counts the current tier and every cheaper one
// still available (so the last tier has tiersLeft == 1). The engine's
// ladder and the facade's EvaluateResilient both take their shares from
// it.
//
// With no deadline on ctx, or on the last tier, the attempt runs under
// ctx itself (tctx == ctx). Otherwise the remaining wall clock is split
// evenly across the tiers still available: tctx expires after
// remaining/tiersLeft, reserving the rest for the cheaper fallbacks, so
// a stuck tier cannot eat their time. Nothing decides in advance that a
// tier will not fit: an attempt that cannot finish in its share spends
// that share and no more.
//
// cancel is never nil; callers always defer it.
func PlanTier(ctx context.Context, tiersLeft int) (tctx context.Context, cancel context.CancelFunc) {
	if ctx == nil {
		return ctx, func() {}
	}
	deadline, ok := ctx.Deadline()
	if !ok || tiersLeft <= 1 {
		return ctx, func() {}
	}
	share := time.Until(deadline) / time.Duration(tiersLeft)
	if share <= 0 {
		return ctx, func() {} // past the deadline: the attempt's first poll fails
	}
	return context.WithTimeout(ctx, share)
}
