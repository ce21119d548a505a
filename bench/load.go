package main

import (
	"context"
	"sync"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/wire"
)

// doer is the one method of *wire.Client the load loops use, so the
// loops can be tested against an in-memory target without a daemon.
type doer interface {
	Do(ctx context.Context, req wire.Request) (wire.Response, error)
}

// call is one generated request and the row count its answer must have,
// computed by the benchmark itself with the RAM join on the same
// generated database.
type call struct {
	Req  wire.Request
	Rows int
}

// judge decides whether a reply counts: status OK, the reference row
// count, and served by the vm tier. The RAM join is ~10× faster than
// the circuit at these sizes, so a reply from any other tier is a
// failure even when its answer is right.
func judge(resp wire.Response, err error, wantRows int) (ok, tierNotVM bool) {
	if err != nil || resp.Status != wire.StatusOK {
		return false, false
	}
	if resp.Tier != engine.TierVM {
		return false, true
	}
	return int(resp.Rows) == wantRows, false
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func toUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// count adds o's outcome counters, and none of its samples, to r.
func (r *rep) count(o rep) {
	r.OK += o.OK
	r.Failed += o.Failed
	r.TierNotVM += o.TierNotVM
}

// record files one reply under OK (with its latency, and at, the time
// since the repetition began at which it was sent or due) or Failed.
func (r *rep) record(at, lat time.Duration, resp wire.Response, err error, wantRows int) {
	ok, notVM := judge(resp, err, wantRows)
	if notVM {
		r.TierNotVM++
	}
	if !ok {
		r.Failed++
		return
	}
	r.OK++
	r.LatMs = append(r.LatMs, toMs(lat))
	r.AtS = append(r.AtS, at.Seconds())
	r.OutsideUs = append(r.OutsideUs, toUs(lat-resp.CompileTime-resp.EvalTime))
}

// closedLoop runs one client per generator in next for dur: each sends
// its next request only after the previous reply, so a slow daemon is
// offered less load. Client i uses conns[i mod len(conns)]. Latency is
// send→reply.
func closedLoop(ctx context.Context, conns []doer, next []func() call, dur time.Duration) rep {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]rep, len(next))
	var wg sync.WaitGroup
	for i := range next {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := conns[i%len(conns)]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				c := next[i]()
				t0 := time.Now()
				resp, err := conn.Do(ctx, c.Req)
				parts[i].record(t0.Sub(start), time.Since(t0), resp, err, c.Rows)
			}
		}(i)
	}
	wg.Wait()
	var out rep
	for _, p := range parts {
		out.count(p)
		out.LatMs = append(out.LatMs, p.LatMs...)
		out.AtS = append(out.AtS, p.AtS...)
		out.OutsideUs = append(out.OutsideUs, p.OutsideUs...)
	}
	out.Seconds = time.Since(start).Seconds()
	return out
}

// openLoop sends a burst of size burst every period for dur on one
// connection, whether or not earlier replies have arrived. Each
// request's latency runs from the instant its burst was due, so a
// stall charges the requests queued behind it, and the sender's own
// worst lateness is reported to show the schedule was kept.
func openLoop(ctx context.Context, conn doer, next func() call, dur, period time.Duration, burst int) rep {
	var (
		mu      sync.Mutex
		out     rep
		wg      sync.WaitGroup
		maxLate time.Duration
	)
	start := time.Now()
	for k := 0; k < int(dur/period) && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		maxLate = max(maxLate, time.Since(due))
		for j := 0; j < burst; j++ {
			c := next()
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := conn.Do(ctx, c.Req)
				lat := time.Since(due)
				mu.Lock()
				out.record(due.Sub(start), lat, resp, err, c.Rows)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	out.MaxLateMs = toMs(maxLate)
	out.Seconds = time.Since(start).Seconds()
	return out
}
