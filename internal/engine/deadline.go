package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"circuitql/internal/guard"
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
// durations (α = 1/8), used to predict whether a tier can finish inside
// its share of a deadline and when a shed lane will have room. The zero
// value estimates 0 ("unknown").
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

// PlanTier decides how the next tier attempt relates to the request's
// deadline. tiersLeft counts the current tier and every cheaper one
// still available (so the last tier has tiersLeft == 1); est is the
// expected duration of this tier (0: unknown). The engine's ladder and
// the facade's EvaluateResilient both take their shares from it.
//
// With no deadline on ctx the attempt runs unbounded: tctx == ctx and
// skip is false. With a deadline, the remaining wall clock is split
// evenly across the tiers still available — the current tier gets
// remaining/tiersLeft, reserving time for the cheaper fallbacks — and:
//
//   - if the tier's estimated duration exceeds its share (and a cheaper
//     tier exists), skip is true with a typed reason wrapping
//     guard.ErrBudgetExceeded: the request jumps straight to the
//     cheaper tier instead of burning its deadline on a doomed attempt;
//   - otherwise tctx bounds the attempt to its share, so a stuck tier
//     cannot eat the fallbacks' time. The last tier runs under the full
//     remaining deadline (tctx == ctx).
//
// cancel is never nil; callers always defer it.
func PlanTier(ctx context.Context, tiersLeft int, est time.Duration) (tctx context.Context, cancel context.CancelFunc, skip bool, reason error) {
	nop := func() {}
	if ctx == nil {
		return ctx, nop, false, nil
	}
	deadline, ok := ctx.Deadline()
	if !ok || tiersLeft <= 1 {
		return ctx, nop, false, nil
	}
	remaining := time.Until(deadline)
	share := remaining / time.Duration(tiersLeft)
	if est > 0 && est > share {
		return ctx, nop, true, fmt.Errorf(
			"%w: engine: tier skipped for deadline (~%v estimated > %v share of %v remaining)",
			guard.ErrBudgetExceeded, est.Round(time.Microsecond), share.Round(time.Microsecond), remaining.Round(time.Microsecond))
	}
	if remaining <= 0 {
		// Already past the deadline: the attempt's first poll fails.
		return ctx, nop, false, nil
	}
	tctx, cancel = context.WithDeadline(ctx, time.Now().Add(share))
	return tctx, cancel, false, nil
}
