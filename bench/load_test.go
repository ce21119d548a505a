package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"circuitql/internal/wire"
)

// fakeTarget answers in memory: no daemon, no socket.
type fakeTarget struct {
	delay time.Duration
	reply func(req wire.Request) (wire.Response, error)
	calls atomic.Int64
}

func (f *fakeTarget) Do(_ context.Context, req wire.Request) (wire.Response, error) {
	f.calls.Add(1)
	time.Sleep(f.delay)
	return f.reply(req)
}

func okReply(rows uint32) func(wire.Request) (wire.Response, error) {
	return func(wire.Request) (wire.Response, error) {
		return wire.Response{Status: wire.StatusOK, Tier: "vm", Rows: rows}, nil
	}
}

// A wrong row count, a reply from the RAM tier, a non-OK status and a
// transport error are all failed; only the tier fault counts as
// tier_not_vm.
func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name      string
		resp      wire.Response
		err       error
		ok, notVM bool
	}{
		{"right", wire.Response{Status: wire.StatusOK, Tier: "vm", Rows: 3}, nil, true, false},
		{"wrong rows", wire.Response{Status: wire.StatusOK, Tier: "vm", Rows: 4}, nil, false, false},
		{"ram tier, right rows", wire.Response{Status: wire.StatusOK, Tier: "ram", Rows: 3}, nil, false, true},
		{"oblivious tier", wire.Response{Status: wire.StatusOK, Tier: "oblivious", Rows: 3}, nil, false, true},
		{"overloaded", wire.Response{Status: wire.StatusOverloaded}, nil, false, false},
		{"transport", wire.Response{}, context.Canceled, false, false},
	} {
		ok, notVM := judge(c.resp, c.err, 3)
		if ok != c.ok || notVM != c.notVM {
			t.Errorf("%s: judge = (%v, %v), want (%v, %v)", c.name, ok, notVM, c.ok, c.notVM)
		}
	}
}

// Failed replies count against attempts and contribute no latency.
func TestClosedLoopCountsFailures(t *testing.T) {
	target := &fakeTarget{reply: func(req wire.Request) (wire.Response, error) {
		switch req.Query {
		case "ram":
			return wire.Response{Status: wire.StatusOK, Tier: "ram", Rows: 3}, nil
		case "short":
			return wire.Response{Status: wire.StatusOK, Tier: "vm", Rows: 2}, nil
		}
		return wire.Response{Status: wire.StatusOK, Tier: "vm", Rows: 3, EvalTime: time.Microsecond}, nil
	}}
	var n atomic.Int64
	next := func() call {
		queries := []string{"good", "ram", "good", "short"}
		return call{Req: wire.Request{Query: queries[n.Add(1)%4]}, Rows: 3}
	}
	r := closedLoop(context.Background(), []doer{target}, []func() call{next, next}, 50*time.Millisecond)
	if r.OK == 0 || r.Failed == 0 {
		t.Fatalf("ok=%d failed=%d: both kinds expected", r.OK, r.Failed)
	}
	if int64(r.OK+r.Failed) != target.calls.Load() {
		t.Errorf("ok+failed = %d, target saw %d calls", r.OK+r.Failed, target.calls.Load())
	}
	if diff := r.OK - r.Failed; diff < -2 || diff > 2 {
		t.Errorf("ok=%d failed=%d: every other reply is wrong", r.OK, r.Failed)
	}
	if diff := r.Failed - 2*r.TierNotVM; diff < -2 || diff > 2 {
		t.Errorf("failed=%d tier_not_vm=%d: half the failures are tier faults", r.Failed, r.TierNotVM)
	}
	if len(r.LatMs) != r.OK || len(r.OutsideUs) != r.OK || len(r.AtS) != r.OK {
		t.Errorf("%d latencies, %d outside samples and %d send times for %d ok replies", len(r.LatMs), len(r.OutsideUs), len(r.AtS), r.OK)
	}
	if r.Seconds < 0.05 {
		t.Errorf("measured %v s, asked for 0.05", r.Seconds)
	}
}

// Closed loop: a client never has two requests in flight.
func TestClosedLoopWaitsForReply(t *testing.T) {
	var inFlight, worst atomic.Int64
	target := &fakeTarget{delay: time.Millisecond}
	target.reply = func(wire.Request) (wire.Response, error) {
		inFlight.Add(-1)
		return wire.Response{Status: wire.StatusOK, Tier: "vm"}, nil
	}
	next := func() call {
		if v := inFlight.Add(1); v > worst.Load() {
			worst.Store(v)
		}
		return call{}
	}
	r := closedLoop(context.Background(), []doer{target, target}, []func() call{next, next}, 30*time.Millisecond)
	if worst.Load() > 2 {
		t.Errorf("%d requests in flight from 2 closed-loop clients", worst.Load())
	}
	if r.Failed != 0 {
		t.Errorf("failed = %d", r.Failed)
	}
}

// Open loop: the schedule is kept whatever the target does, latency
// runs from the burst's due time, and the sender's lateness is reported.
func TestOpenLoopDueTime(t *testing.T) {
	target := &fakeTarget{delay: 30 * time.Millisecond, reply: okReply(1)}
	var sent int
	next := func() call {
		sent++
		if sent == 9 { // the third burst's first request: stall the sender
			time.Sleep(25 * time.Millisecond)
		}
		return call{Rows: 1}
	}
	const period, burst = 10 * time.Millisecond, 4
	r := openLoop(context.Background(), target, next, 100*time.Millisecond, period, burst)
	if want := 10 * burst; r.OK != want || r.Failed != 0 {
		t.Fatalf("ok=%d failed=%d, want %d ok: the target's 30 ms must not slow a 10 ms schedule", r.OK, r.Failed, want)
	}
	// The stall made the fourth burst ~15 ms late; its requests are
	// charged from when they were due, not from when they were sent.
	if r.MaxLateMs < 10 {
		t.Errorf("max lateness %.1f ms, want the ~15 ms stall reported", r.MaxLateMs)
	}
	// A sample belongs to the window its burst was due in.
	for _, at := range r.AtS {
		if k := at / period.Seconds(); math.Abs(k-math.Round(k)) > 1e-6 {
			t.Fatalf("sample filed at %v s, not at a burst's due time", at)
		}
	}
	s := sortedCopy(r.LatMs)
	if s[0] < 30 {
		t.Errorf("fastest latency %.1f ms under the target's 30 ms", s[0])
	}
	if worst := s[len(s)-1]; worst < 30+10 {
		t.Errorf("worst latency %.1f ms does not include the sender's stall", worst)
	}
}
