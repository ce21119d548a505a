package guard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPollLiveContext(t *testing.T) {
	if err := Poll(context.Background()); err != nil {
		t.Fatalf("Poll(live) = %v", err)
	}
	if err := Poll(nil); err != nil {
		t.Fatalf("Poll(nil) = %v", err)
	}
}

func TestPollCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Poll(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Poll(canceled) = %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("canceled must not match ErrBudgetExceeded")
	}
}

func TestPollDeadlineIsBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Poll(ctx)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Poll(expired deadline) = %v, want ErrBudgetExceeded", err)
	}
}

func TestPivotBudget(t *testing.T) {
	b := &Budget{MaxLPPivots: 3}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Pivot(ctx); err != nil {
			t.Fatalf("pivot %d: %v", i, err)
		}
	}
	if err := b.Pivot(ctx); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("4th pivot = %v, want ErrBudgetExceeded", err)
	}
	if got := b.Pivots(); got != 4 {
		t.Fatalf("Pivots() = %d, want 4", got)
	}
}

func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := b.Pivot(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CheckGates(ctx, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckRows(1 << 30); err != nil {
		t.Fatal(err)
	}
	if b.Pivots() != 0 {
		t.Fatal("nil budget counted pivots")
	}
}

func TestGateAndRowBudgets(t *testing.T) {
	b := &Budget{MaxGates: 10, MaxRows: 5}
	ctx := context.Background()
	if err := b.CheckGates(ctx, 10); err != nil {
		t.Fatalf("at cap: %v", err)
	}
	if err := b.CheckGates(ctx, 11); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over cap = %v", err)
	}
	if err := b.CheckRows(5); err != nil {
		t.Fatalf("rows at cap: %v", err)
	}
	if err := b.CheckRows(6); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("rows over cap = %v", err)
	}
}

func TestContextPlumbing(t *testing.T) {
	b := &Budget{MaxGates: 1}
	ctx := WithBudget(context.Background(), b)
	if got := FromContext(ctx); got != b {
		t.Fatalf("FromContext = %p, want %p", got, b)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %p, want nil", got)
	}
}

func TestRecoverPlainPanic(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err)
		panic("boom")
	}
	err := f()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err not an *InternalError: %v", err)
	}
	if ie.Payload != "boom" {
		t.Fatalf("payload = %v, want boom", ie.Payload)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("stack not captured")
	}
}

func TestRecoverInvalidInputPanic(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err)
		panic(Invalidf("bad schema %q", "X"))
	}
	err := f()
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("err = %v, want ErrInvalidInput", err)
	}
	if errors.Is(err, ErrInternal) {
		t.Fatal("typed invalid-input panic misclassified as internal")
	}
}

func TestRecoverNoPanic(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err)
		return nil
	}
	if err := f(); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

// errCtx is a context that reports err from Err, with done as its Done
// channel: nil for a context that can never be canceled yet says it
// was, as test contexts that count polls through Err do.
type errCtx struct {
	context.Context
	done chan struct{}
	err  error
}

func (c *errCtx) Done() <-chan struct{} {
	if c.done == nil {
		return nil // a nil channel, not a nil chan in a non-nil interface
	}
	return c.done
}
func (c *errCtx) Err() error { return c.err }

// TestPollClassification holds Poll, which reads Err only once Done has
// closed, to the classification of Err alone on every kind of context.
func TestPollClassification(t *testing.T) {
	byErr := func(ctx context.Context) error {
		if ctx == nil {
			return nil
		}
		switch err := ctx.Err(); {
		case err == nil:
			return nil
		case errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("%w: wall-clock deadline: %w", ErrBudgetExceeded, err)
		default:
			return fmt.Errorf("%w: %v", ErrCanceled, err)
		}
	}
	type key struct{}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	future, cancelFuture := context.WithTimeout(context.Background(), time.Hour)
	defer cancelFuture()
	child, cancelChild := context.WithCancel(live)
	cancelChild()
	caused, cancelCause := context.WithCancelCause(context.Background())
	cancelCause(errors.New("shutting down"))
	closed := make(chan struct{})
	close(closed)
	errCustom := errors.New("custom stop")

	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error // a sentinel the result must match, nil for none
	}{
		{"nil", nil, nil},
		{"background", context.Background(), nil},
		{"todo", context.TODO(), nil},
		{"live cancelable", live, nil},
		{"canceled", canceled, ErrCanceled},
		{"cancel cause", caused, ErrCanceled},
		{"expired deadline", expired, ErrBudgetExceeded},
		{"future deadline", future, nil},
		{"value-wrapped live", context.WithValue(live, key{}, 1), nil},
		{"value-wrapped canceled", context.WithValue(canceled, key{}, 1), ErrCanceled},
		{"value-wrapped deadline", context.WithValue(expired, key{}, 1), ErrBudgetExceeded},
		{"canceled child of live", child, ErrCanceled},
		{"custom, no Done, live", &errCtx{Context: context.Background()}, nil},
		{"custom, no Done, canceled", &errCtx{Context: context.Background(), err: context.Canceled}, ErrCanceled},
		{"custom, no Done, deadline", &errCtx{Context: context.Background(), err: context.DeadlineExceeded}, ErrBudgetExceeded},
		{"custom, closed Done, own error", &errCtx{Context: context.Background(), done: closed, err: errCustom}, ErrCanceled},
		{"custom, closed Done, deadline", &errCtx{Context: context.Background(), done: closed, err: context.DeadlineExceeded}, ErrBudgetExceeded},
	} {
		got, want := Poll(tc.ctx), byErr(tc.ctx)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Errorf("%s: Poll = %v, Err alone classifies %v", tc.name, got, want)
		}
		if tc.want == nil && got != nil || tc.want != nil && !errors.Is(got, tc.want) {
			t.Errorf("%s: Poll = %v, want %v", tc.name, got, tc.want)
		}
		if errors.Is(tc.want, ErrBudgetExceeded) && !errors.Is(got, context.DeadlineExceeded) {
			t.Errorf("%s: Poll = %v does not match context.DeadlineExceeded", tc.name, got)
		}
	}
}
