// Budgets, typed failure causes and tiered degradation: the vocabulary
// of the contract every blocking entry point follows (package doc).

package circuitql

import (
	"context"
	"fmt"

	"circuitql/internal/engine"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/qos"
	"circuitql/internal/query"
)

// Budget caps the resources a compile or evaluate call may consume:
// LP pivots, circuit gate counts, and intermediate-relation rows. The
// wall clock is capped by the context's deadline. Attach with
// WithBudget; a nil budget (or absent field) means unlimited.
type Budget = guard.Budget

// WithBudget attaches a resource budget to the context. Every blocking
// entry point consults it.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return guard.WithBudget(ctx, b)
}

// Typed failure causes. Classify errors from any entry point with
// errors.Is.
var (
	// ErrBudgetExceeded: a resource cap tripped — LP pivots, gates,
	// rows, or the context's deadline (wall clock is a budget too).
	ErrBudgetExceeded = guard.ErrBudgetExceeded
	// ErrCanceled: the context was canceled explicitly.
	ErrCanceled = guard.ErrCanceled
	// ErrInvalidInput: the query, constraints, or database are
	// malformed or nonconforming.
	ErrInvalidInput = guard.ErrInvalidInput
	// ErrInternal: an internal invariant broke; the panic payload is
	// preserved on the wrapping *guard.InternalError.
	ErrInternal = guard.ErrInternal
	// ErrOverloaded: the serving engine shed the request at admission
	// (queue full or low priority under load). The wrapping
	// *OverloadError carries the lane, reason, and a retry-after hint.
	ErrOverloaded = guard.ErrOverloaded
)

// OverloadError is the typed shed failure: which lane rejected the
// request, why, and how long the caller should back off. Retrieve with
// errors.As; it matches ErrOverloaded under errors.Is.
type OverloadError = guard.OverloadError

// Evaluation tier names, in degradation order. TierVM and TierRAM are
// the engine's ladder (ServeResult.Tier); EvaluateResilient's ladder is
// oblivious → RAM, its circuit rung the word-circuit interpreter.
const (
	TierVM        = engine.TierVM
	TierOblivious = "oblivious"
	TierRAM       = engine.TierRAM
)

// TierAttempt records one tier's outcome, in a TierReport or a
// ServeResult: its name and the error that made it fail (nil for the
// tier that served).
type TierAttempt = engine.TierAttempt

// TierReport explains how EvaluateResilient produced its answer: which
// tier served the result and why every earlier tier was rejected.
type TierReport struct {
	Served   string // name of the tier that produced the result
	Attempts []TierAttempt
}

// String renders the report as a one-line degradation trace.
func (r *TierReport) String() string {
	s := ""
	for i, a := range r.Attempts {
		if i > 0 {
			s += " → "
		}
		if a.Err == nil {
			s += a.Tier + " (served)"
		} else {
			s += fmt.Sprintf("%s (%v)", a.Tier, a.Err)
		}
	}
	return s
}

// EvaluateResilient evaluates the query with tiered degradation: the
// oblivious circuit first, the reference RAM evaluator if it fails.
// Both compute the same Q(D), so a fault in the circuit degrades the
// execution strategy, never the answer. Each tier runs under its own
// panic containment; the report records every attempt. When the
// context itself is dead (canceled or past its deadline) the RAM tier
// is skipped — it would fail the same way — and the first error is
// returned.
//
// With a deadline on ctx, the oblivious tier runs under half of the
// remaining wall clock, so a stuck circuit exhausts only its share and
// the RAM fallback still gets its turn; the RAM tier runs under the
// request context itself.
//
// The TierReport is the call's only record: nothing is counted process
// wide. When ctx carries an obs tracer each attempt is also a
// tier/<name> span.
func (c *CompiledQuery) EvaluateResilient(ctx context.Context, db Database) (*Relation, *TierReport, error) {
	report := &TierReport{}
	if err := func() (err error) {
		defer guard.Recover(&err)
		return query.ValidateDB(c.inner.Query, c.inner.DC, db)
	}(); err != nil {
		return nil, report, err
	}
	tiers := []struct {
		name string
		run  func(ctx context.Context) (*Relation, error)
	}{
		{TierOblivious, func(ctx context.Context) (out *Relation, err error) {
			defer guard.Recover(&err)
			return c.inner.EvaluateObliviousCtx(ctx, db)
		}},
		{TierRAM, func(ctx context.Context) (out *Relation, err error) {
			defer guard.Recover(&err)
			return query.EvaluateCtx(ctx, c.inner.Query, db)
		}},
	}
	for i, t := range tiers {
		// Estimate 0: the facade has no latency history, so shares bound
		// tier attempts but never skip one outright.
		tctx, cancel, _, _ := qos.PlanTier(ctx, len(tiers)-i, 0)
		tierCtx, sp := obs.StartSpan(tctx, obs.StageTier+t.name)
		out, err := t.run(tierCtx)
		cancel()
		if err == nil && out != nil {
			sp.AddInt(obs.CounterRows, int64(out.Len()))
		}
		sp.SetError(err)
		sp.End()
		report.Attempts = append(report.Attempts, TierAttempt{Tier: t.name, Err: err})
		if err == nil {
			report.Served = t.name
			return out, report, nil
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, report, err
		}
	}
	last := report.Attempts[len(report.Attempts)-1].Err
	return nil, report, fmt.Errorf("circuitql: all evaluation tiers failed: %w", last)
}
