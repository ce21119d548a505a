// Resilience layer of the facade: context-aware compile/evaluate
// variants, resource budgets, panic containment at the API boundary,
// and tiered degradation.
//
// Every entry point here follows the same contract:
//
//   - the context's deadline and cancellation are honored inside the
//     hot loops (LP pivots, proof-sequence search, circuit
//     construction, gate evaluation), so calls return promptly;
//   - a *Budget attached with WithBudget caps LP pivots, circuit gate
//     counts, and intermediate-relation rows;
//   - failures carry a typed cause — errors.Is against
//     ErrBudgetExceeded, ErrCanceled, ErrInvalidInput, or ErrInternal
//     classifies them — and panics escaping the internals are converted
//     to ErrInternal instead of crossing the API boundary.
package circuitql

import (
	"context"
	"fmt"
	"math/big"

	"circuitql/internal/bound"
	"circuitql/internal/core"
	"circuitql/internal/engine"
	"circuitql/internal/ghd"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/qos"
	"circuitql/internal/query"
	"circuitql/internal/yannakakis"
)

// Budget caps the resources a compile or evaluate call may consume:
// LP pivots, circuit gate counts, and intermediate-relation rows. The
// wall clock is capped by the context's deadline. Attach with
// WithBudget; a nil budget (or absent field) means unlimited.
type Budget = guard.Budget

// WithBudget attaches a resource budget to the context. Every
// context-aware entry point consults it.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return guard.WithBudget(ctx, b)
}

// Typed failure causes. Classify errors from the context-aware entry
// points with errors.Is.
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

// CompileCtx is Compile under a context: the exact LPs, the
// proof-sequence search, and both circuit-construction layers poll ctx
// and respect any Budget it carries. A pathological query under a tight
// deadline or gate cap returns ErrBudgetExceeded instead of hanging.
func CompileCtx(ctx context.Context, q *Query, dcs DCSet) (cq *CompiledQuery, err error) {
	defer guard.Recover(&err)
	c, err := core.CompileQueryCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	return &CompiledQuery{inner: c}, nil
}

// EvaluateCtx is Evaluate under a context. The database is validated
// upfront against the query and the compiled constraint set (missing
// relations, arity mismatches, cardinality or degree overruns surface
// as ErrInvalidInput before any circuit work starts).
func (c *CompiledQuery) EvaluateCtx(ctx context.Context, db Database) (out *Relation, err error) {
	defer guard.Recover(&err)
	if err := query.ValidateDB(c.inner.Query, c.inner.DC, db); err != nil {
		return nil, err
	}
	return c.inner.EvaluateObliviousCtx(ctx, db)
}

// EvaluateRelationalCtx is EvaluateRelational under a context.
func (c *CompiledQuery) EvaluateRelationalCtx(ctx context.Context, db Database, check bool) (out *Relation, err error) {
	defer guard.Recover(&err)
	if err := query.ValidateDB(c.inner.Query, c.inner.DC, db); err != nil {
		return nil, err
	}
	return c.inner.EvaluateRelationalCtx(ctx, db, check)
}

// EvaluateRAMCtx is EvaluateRAM under a context, with upfront database
// validation (no constraint conformance — the RAM evaluator accepts any
// instance).
func EvaluateRAMCtx(ctx context.Context, q *Query, db Database) (out *Relation, err error) {
	defer guard.Recover(&err)
	if err := query.ValidateDB(q, nil, db); err != nil {
		return nil, err
	}
	return query.EvaluateCtx(ctx, q, db)
}

// CompileBooleanCtx is CompileBoolean under a context (see CompileCtx).
func CompileBooleanCtx(ctx context.Context, q *Query, dcs DCSet) (bq *BooleanQuery, err error) {
	defer guard.Recover(&err)
	bc, err := core.CompileBooleanCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	return &BooleanQuery{inner: bc}, nil
}

// DecideCtx is Decide under a context.
func (b *BooleanQuery) DecideCtx(ctx context.Context, db Database) (ok bool, err error) {
	defer guard.Recover(&err)
	return b.inner.DecideCtx(ctx, db)
}

// OutputSensitiveCtx is OutputSensitive under a context: the width
// search, the per-bag PANDA-C compilations, and the count-circuit
// construction all poll ctx and respect any Budget it carries.
func OutputSensitiveCtx(ctx context.Context, q *Query, dcs DCSet) (o *OutputSensitiveQuery, err error) {
	defer guard.Recover(&err)
	plan, err := yannakakis.NewPlanCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	cc, err := plan.CompileCountCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &OutputSensitiveQuery{plan: plan, count: cc}, nil
}

// CountCtx is Count under a context.
func (o *OutputSensitiveQuery) CountCtx(ctx context.Context, db Database) (n int, err error) {
	defer guard.Recover(&err)
	return o.count.CountCtx(ctx, db, false)
}

// EvaluateCtx is the two-phase Evaluate under a context.
func (o *OutputSensitiveQuery) EvaluateCtx(ctx context.Context, db Database) (out *Relation, err error) {
	defer guard.Recover(&err)
	n, err := o.count.CountCtx(ctx, db, false)
	if err != nil {
		return nil, err
	}
	ec, err := o.plan.CompileEvalCtx(ctx, float64(n))
	if err != nil {
		return nil, err
	}
	return ec.EvaluateCtx(ctx, db, false)
}

// ComputeWidthsCtx is ComputeWidths under a context.
func ComputeWidthsCtx(ctx context.Context, q *Query, dcs DCSet) (w Widths, err error) {
	defer guard.Recover(&err)
	f, _, err := ghd.FhtwCtx(ctx, q)
	if err != nil {
		return w, err
	}
	df, _, err := ghd.DAFhtwCtx(ctx, q, dcs)
	if err != nil {
		return w, err
	}
	ds, err := ghd.DASubwCtx(ctx, q, dcs, 24)
	if err != nil {
		return w, err
	}
	w.Fhtw, w.DAFhtw, w.DASubw = f, df, ds
	return w, nil
}

// PolymatroidBoundCtx is PolymatroidBound under a context.
func PolymatroidBoundCtx(ctx context.Context, q *Query, dcs DCSet) (r *big.Rat, err error) {
	defer guard.Recover(&err)
	res, err := bound.LogDAPBCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	return res.LogValue, nil
}

// Evaluation tier names, in degradation order — the engine's
// vocabulary. TierVM is the engine's vectorized fast path
// (ServeResult.Tier); EvaluateResilient's own ladder starts at the
// oblivious tier, which only the facade has.
const (
	TierVM         = engine.TierVM
	TierOblivious  = "oblivious"
	TierRelational = engine.TierRelational
	TierRAM        = engine.TierRAM
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

// EvaluateResilient evaluates the query with tiered degradation:
// the oblivious circuit first, the relational circuit if it fails, the
// reference RAM evaluator last. All three compute the same Q(D), so a
// fault in a faster tier degrades the execution strategy, never the
// answer. Each tier runs under its own panic containment; the report
// records every attempt. When the context itself is dead (canceled or
// past its deadline) later tiers are skipped — they would fail the
// same way — and the first error is returned.
//
// With a deadline on ctx, each non-final tier runs under its share of
// the remaining wall clock (remaining ÷ tiers left), so a stuck faster
// tier exhausts only its slice and the cheaper fallbacks still get
// their turn; the last tier runs under the request context itself.
//
// Every attempt and serve is also recorded on the process-wide tier
// ledger (and, when ctx carries an obs tracer, as a tier/<name> span),
// so the /metrics tier counters agree with the returned TierReport no
// matter whether a request went through an Engine or this facade path.
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
		{TierRelational, func(ctx context.Context) (out *Relation, err error) {
			defer guard.Recover(&err)
			return c.inner.EvaluateRelationalCtx(ctx, db, false)
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
		obs.Tiers.Attempt(t.name)
		out, err := t.run(tierCtx)
		cancel()
		if err == nil && out != nil {
			sp.AddInt(obs.CounterRows, int64(out.Len()))
		}
		sp.SetError(err)
		sp.End()
		report.Attempts = append(report.Attempts, TierAttempt{Tier: t.name, Err: err})
		if err == nil {
			obs.Tiers.Serve(t.name, i > 0)
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
