// Package guard is the resilience layer of the pipeline: a typed error
// taxonomy, resource budgets checked at the hot loops of compilation and
// evaluation, and panic containment at the public API boundary.
//
// The paper's pitch is that data-independent circuits make query
// evaluation safe to outsource; this package applies the same discipline
// to the compiler itself. PANDA-C and the exact big.Rat simplex can be
// super-polynomially expensive on adversarial degree-constraint sets
// (knowledge compilation faces the identical failure mode), so every
// long-running loop polls a context and a Budget, and every panic that
// escapes library code is converted into a typed error instead of
// crashing the caller's process.
//
// Error taxonomy:
//
//   - ErrCanceled: the caller's context was canceled;
//   - ErrBudgetExceeded: a resource budget tripped — wall-clock deadline
//     (context.DeadlineExceeded), gate count, LP pivots, or
//     intermediate-relation rows;
//   - ErrInvalidInput: the caller handed in something malformed (bad
//     query, mismatched schema, non-conforming database);
//   - ErrOverloaded: the serving layer shed the request under load
//     instead of queueing it unboundedly; the wrapping *OverloadError
//     carries a retry-after hint;
//   - ErrInternal: a bug in this library, recovered from a panic with the
//     payload preserved.
//
// All errors returned by the library match exactly one of these five
// via errors.Is. Deadline failures additionally match
// context.DeadlineExceeded, so callers can distinguish "out of wall
// clock" from the other budget trips without string matching.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Sentinel errors of the taxonomy. Match with errors.Is.
var (
	ErrBudgetExceeded = errors.New("resource budget exceeded")
	ErrCanceled       = errors.New("canceled")
	ErrInvalidInput   = errors.New("invalid input")
	ErrOverloaded     = errors.New("overloaded")
	ErrInternal       = errors.New("internal error")
)

// OverloadError is a request shed by admission control: the serving
// layer was saturated and rejected the work instead of queueing it. It
// matches ErrOverloaded via errors.Is. RetryAfter is a best-effort hint
// for when the shed lane is expected to have capacity again; zero means
// no estimate.
type OverloadError struct {
	// Lane names the admission lane that shed the request ("hit",
	// "miss", ...).
	Lane string
	// Reason says why ("queue_full", "priority", ...).
	Reason string
	// RetryAfter estimates when retrying is worthwhile (0: unknown).
	RetryAfter time.Duration
}

// Error describes the shed decision.
func (e *OverloadError) Error() string {
	s := fmt.Sprintf("overloaded: %s lane shed request (%s)", e.Lane, e.Reason)
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(", retry after %v", e.RetryAfter)
	}
	return s
}

// Unwrap ties OverloadError into the taxonomy.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Budget is a set of resource caps for one compilation or evaluation.
// The zero value (and a nil *Budget) means unlimited; the wall-clock
// budget is the deadline of the context carrying the Budget. Counters
// are cumulative across every LP solve and circuit pass under the same
// Budget, so a Budget must not be reused across independent calls whose
// spend should not pool.
type Budget struct {
	// MaxGates caps the gate count of any circuit under construction
	// (relational and word-level alike). 0 means unlimited.
	MaxGates int64
	// MaxLPPivots caps the total simplex pivots across all LP solves.
	// 0 means unlimited.
	MaxLPPivots int64
	// MaxRows caps the row count of any single intermediate relation
	// materialized during evaluation. 0 means unlimited.
	MaxRows int64

	pivots atomic.Int64
}

// Pivots returns the number of LP pivots spent so far.
func (b *Budget) Pivots() int64 {
	if b == nil {
		return 0
	}
	return b.pivots.Load()
}

// Poll maps the context's state to the taxonomy: nil while the context
// is live, ErrBudgetExceeded after its deadline (wall clock is a
// budget), ErrCanceled after cancellation.
//
// A live context is told apart by a non-blocking receive on Done, which
// a cancelable context answers with an atomic load; its Err takes the
// context's mutex, and evaluations poll one request context from several
// workers hundreds of times each. Err is asked only once Done has
// closed, or of a context with no Done channel at all.
func Poll(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if done := ctx.Done(); done != nil {
		select {
		case <-done:
		default:
			return nil
		}
	}
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		// Both sentinels are wrapped so the failure classifies as a
		// budget trip (wall clock is a budget) and as a deadline
		// (errors.Is(err, context.DeadlineExceeded)) for deadline-aware
		// serving layers.
		return fmt.Errorf("%w: wall-clock deadline: %w", ErrBudgetExceeded, err)
	default:
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
}

// Pivot charges one simplex pivot against the budget and polls the
// context. Safe on a nil receiver.
func (b *Budget) Pivot(ctx context.Context) error {
	if err := Poll(ctx); err != nil {
		return err
	}
	if b == nil || b.MaxLPPivots <= 0 {
		return nil
	}
	if n := b.pivots.Add(1); n > b.MaxLPPivots {
		return fmt.Errorf("%w: LP pivot budget %d exhausted", ErrBudgetExceeded, b.MaxLPPivots)
	}
	return nil
}

// CheckGates verifies a circuit's current gate count against the budget
// and polls the context. Safe on a nil receiver.
func (b *Budget) CheckGates(ctx context.Context, gates int) error {
	if err := Poll(ctx); err != nil {
		return err
	}
	if b == nil || b.MaxGates <= 0 {
		return nil
	}
	if int64(gates) > b.MaxGates {
		return fmt.Errorf("%w: gate count %d over budget %d", ErrBudgetExceeded, gates, b.MaxGates)
	}
	return nil
}

// CheckRows verifies one intermediate relation's row count against the
// budget. Safe on a nil receiver.
func (b *Budget) CheckRows(rows int) error {
	if b == nil || b.MaxRows <= 0 {
		return nil
	}
	if int64(rows) > b.MaxRows {
		return fmt.Errorf("%w: intermediate relation has %d rows, budget %d", ErrBudgetExceeded, rows, b.MaxRows)
	}
	return nil
}

type budgetKey struct{}

// WithBudget attaches a Budget to the context; the compile and evaluate
// hot loops retrieve it with FromContext.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// FromContext returns the Budget attached to ctx, or nil (unlimited).
func FromContext(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// InternalError is a panic recovered at the API boundary, preserving the
// panic payload and stack. It matches ErrInternal via errors.Is.
type InternalError struct {
	Payload any
	Stack   []byte
}

// Error describes the recovered panic.
func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error: recovered panic: %v", e.Payload)
}

// Unwrap ties InternalError into the taxonomy.
func (e *InternalError) Unwrap() error { return ErrInternal }

// Invalidf returns an input-validation error wrapping ErrInvalidInput.
// Library code whose signature cannot return an error panics with this
// value; Recover at the API boundary surfaces it as ErrInvalidInput
// rather than ErrInternal.
func Invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidInput, fmt.Sprintf(format, args...))
}

// Recover converts a panic into a typed error at the public API
// boundary. Use as
//
//	func Compile(...) (res *T, err error) {
//	    defer guard.Recover(&err)
//	    ...
//	}
//
// A panic whose payload is already an error in the taxonomy (e.g. one
// produced by Invalidf) passes through unchanged; anything else becomes
// an *InternalError with the payload and stack preserved.
func Recover(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok {
		if errors.Is(err, ErrInvalidInput) || errors.Is(err, ErrBudgetExceeded) ||
			errors.Is(err, ErrCanceled) || errors.Is(err, ErrOverloaded) ||
			errors.Is(err, ErrInternal) {
			*errp = err
			return
		}
	}
	*errp = &InternalError{Payload: r, Stack: debug.Stack()}
}
