package engine

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/vm"
)

// batcher coalesces concurrent evaluations of one vm program into
// lock-step batches: the first request of a program opens a window;
// companions arriving within it join; the batch dispatches when it
// fills (maxSize) or the window elapses. One worker's goroutine (or the
// window timer) runs the whole batch through vm.Program.EvalBatch and
// fans the per-request output slices back out.
//
// Windows are keyed by program, not by fingerprint: a fingerprint has
// two programs while a hit-lane job still holds an evicted entry and the
// plan has been recompiled or reloaded from the store, and each program
// needs its own window.
//
// Deadline fan-out: each member keeps waiting on its own context, so a
// member whose clock runs out unblocks immediately with its deadline
// error while the batch finishes for the others. The batch itself runs
// under the engine's lifetime context plus the widest member deadline,
// so one short-deadline member cannot truncate its companions'
// evaluation.
type batcher struct {
	maxSize int
	window  time.Duration
	lifeCtx context.Context

	mu   sync.Mutex
	pend map[*vm.Program]*pendingBatch

	// Dispatch counters (Metrics.Batches, BatchedRequests, BatchSizes).
	dispatches, batched atomic.Int64
	sizes               [NumBatchBuckets]atomic.Int64
}

// NumBatchBuckets sizes the batch-occupancy histogram: bucket 0 counts
// dispatches of exactly 1 request (no coalescing happened), bucket i
// (i ≥ 1) counts dispatches of (2^{i-1}, 2^i] requests, with the last
// bucket absorbing the tail.
const NumBatchBuckets = 8

// BatchBucketLabel names histogram bucket i for exposition: "1", "2",
// "le4", ..., "gt64".
func BatchBucketLabel(i int) string {
	switch {
	case i == 0:
		return "1"
	case i == 1:
		return "2"
	case i < NumBatchBuckets-1:
		return fmt.Sprintf("le%d", 1<<i)
	default:
		return fmt.Sprintf("gt%d", 1<<(NumBatchBuckets-2))
	}
}

type member struct {
	ctx    context.Context
	inputs []vm.Word
	out    chan memberResult // buffered(1); the dispatcher never blocks
}

type memberResult struct {
	raw []vm.Word
	err error
}

type pendingBatch struct {
	prog    *vm.Program
	members []*member
	timer   *time.Timer
}

func newBatcher(maxSize int, window time.Duration, lifeCtx context.Context) *batcher {
	return &batcher{
		maxSize: maxSize,
		window:  window,
		lifeCtx: lifeCtx,
		pend:    make(map[*vm.Program]*pendingBatch),
	}
}

// do submits one request's packed inputs for prog and blocks until its
// slice of the batch output (or an error) is ready, or until the
// request's own context dies.
func (b *batcher) do(ctx context.Context, prog *vm.Program, inputs []vm.Word) ([]vm.Word, error) {
	m := &member{ctx: ctx, inputs: inputs, out: make(chan memberResult, 1)}

	b.mu.Lock()
	pb := b.pend[prog]
	if pb == nil {
		pb = &pendingBatch{prog: prog, members: []*member{m}}
		b.pend[prog] = pb
		pb.timer = time.AfterFunc(b.window, func() {
			b.mu.Lock()
			if b.pend[prog] != pb {
				// Already dispatched by the size trigger.
				b.mu.Unlock()
				return
			}
			delete(b.pend, prog)
			b.mu.Unlock()
			b.run(pb)
		})
		b.mu.Unlock()
	} else {
		pb.members = append(pb.members, m)
		if len(pb.members) >= b.maxSize {
			// Full: dispatch now on this worker's goroutine.
			delete(b.pend, prog)
			pb.timer.Stop()
			b.mu.Unlock()
			b.run(pb)
		} else {
			b.mu.Unlock()
		}
	}

	select {
	case r := <-m.out:
		return r.raw, r.err
	case <-ctxDone(ctx):
		// The batch may still complete for the other members; this
		// member's result is discarded into its buffered channel.
		return nil, guard.Poll(ctx)
	}
}

// run evaluates one dispatched batch and delivers exactly one result to
// every member: its output slice, or the batch's error. run executes on
// the window timer's goroutine or on one member's worker, so a panic in
// the evaluation is contained in eval — escaping here it would take the
// process down (timer) or strand the other members (worker) — and every
// member receives the same typed error and falls through to its next
// tier.
func (b *batcher) run(pb *pendingBatch) {
	n := len(pb.members)
	b.dispatches.Add(1)
	b.batched.Add(int64(n))
	b.sizes[min(bits.Len(uint(n-1)), NumBatchBuckets-1)].Add(1) // 1→0, 2→1, 3..4→2, …
	outs, err := b.eval(pb)
	for i, m := range pb.members {
		if err != nil {
			m.out <- memberResult{err: err}
		} else {
			m.out <- memberResult{raw: outs[i]}
		}
	}
}

// eval runs the batch through the vm program. The evaluation context is
// assembled from the engine lifetime plus the first member's
// observability/fault values, with the widest member deadline applied
// only when every member has one.
func (b *batcher) eval(pb *pendingBatch) (_ [][]vm.Word, err error) {
	defer guard.Recover(&err)
	ctx := b.lifeCtx
	var deadline time.Time
	all := true
	for _, m := range pb.members {
		if m.ctx == nil {
			all = false
			break
		}
		d, ok := m.ctx.Deadline()
		if !ok {
			all = false
			break
		}
		if d.After(deadline) {
			deadline = d
		}
	}
	if all && len(pb.members) > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	// Mine the leader's context for values (span, budget, injector) so
	// the batch's single vm-eval span nests under the leading request's
	// serve span and fault/budget harnesses see the batch.
	lead := pb.members[0].ctx
	if lead != nil {
		if sp := obs.SpanFromContext(lead); sp != nil {
			ctx = obs.WithSpan(ctx, sp)
		}
		if bud := guard.FromContext(lead); bud != nil {
			ctx = guard.WithBudget(ctx, bud)
		}
		if inj := faultinject.FromContext(lead); inj != nil {
			ctx = faultinject.WithInjector(ctx, inj)
		}
	}

	batch := make([][]vm.Word, len(pb.members))
	for i, m := range pb.members {
		batch[i] = m.inputs
	}
	return pb.prog.EvalBatch(ctx, batch)
}
