package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"circuitql/internal/wire"
)

// config is one invocation's sizing.
type config struct {
	Seed int64
	// Seconds is the measured time per workload, split evenly over
	// Reps repetitions, each against a fresh daemon; setup_s is the
	// median of their set-up times.
	Seconds float64
	Reps    int
	// ServeCalls / CompileCalls are the traced calls per serve-side and
	// per compile-side layer function.
	ServeCalls, CompileCalls int

	root    string // module root
	bin     string // built circuitd
	workDir string // scratch inside the checkout, removed at exit
	outDir  string // bench/out
}

// session is a daemon brought to the measured state, with the
// connections the load loops use.
type session struct {
	d      *daemon
	conns  []*wire.Client
	setupS float64
	// warm is what set-up itself sent: verified like everything else.
	warm rep
}

func (s *session) close() {
	for _, c := range s.conns {
		c.Close() //nolint:errcheck // teardown
	}
	s.d.stop()
}

func (s *session) doers() []doer {
	out := make([]doer, len(s.conns))
	for i, c := range s.conns {
		out[i] = c
	}
	return out
}

// setUp execs a fresh circuitd and brings it to the measured state:
// listening, one pass over every shape (the cold compiles), then the
// warm-up requests. The wall time of exactly that is setup_s.
func setUp(ctx context.Context, cfg *config, w *workloadDef, shapes []shape, withAdmin bool, salt *atomic.Int64) (*session, error) {
	start := time.Now()
	d, err := startDaemon(cfg.bin, cfg.workDir, w, withAdmin)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	for i := 0; i < max(w.Clients, 1); i++ {
		c, err := wire.Dial(d.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	send := func(c call) {
		t0 := time.Now()
		resp, err := s.conns[0].Do(ctx, c.Req)
		s.warm.record(0, time.Since(t0), resp, err, c.Rows)
	}
	// The warm-up stream is client −1's: the measured clients' streams
	// start untouched.
	next := w.stream(shapes, cfg.Seed, -1, salt)
	if w.Fresh {
		for i := 0; i < w.ColdPass; i++ {
			send(next())
		}
	} else {
		for _, sh := range shapes {
			send(sh.call())
		}
	}
	for i := 0; i < w.Warmup; i++ {
		send(next())
	}
	s.setupS = time.Since(start).Seconds()
	if err := d.alive(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// streams builds one request stream per client of the workload.
func (w *workloadDef) streams(shapes []shape, seed int64, salt *atomic.Int64) []func() call {
	var next []func() call
	for i := 0; i < max(w.Clients, 1); i++ {
		next = append(next, w.stream(shapes, seed, i, salt))
	}
	return next
}

// measure runs the workload's load loop against a set-up session for dur.
func measure(ctx context.Context, w *workloadDef, s *session, next []func() call, dur time.Duration) (rep, error) {
	var r rep
	if w.Clients > 0 {
		r = closedLoop(ctx, s.doers(), next, dur)
	} else {
		r = openLoop(ctx, s.conns[0], next[0], dur, w.Period, w.Burst)
	}
	if err := s.d.alive(); err != nil {
		return r, err
	}
	return r, ctx.Err()
}

// runUntraced produces a workload's end-to-end numbers. Every
// repetition is a fresh daemon → set-up → its share of the measured
// time, so setup_s is a median over as many set-ups as there are
// repetitions and no set-up is paid for without being measured.
func runUntraced(ctx context.Context, cfg *config, w *workloadDef, shapes []shape) (summary, error) {
	salt := new(atomic.Int64)
	salt.Store(firstSalt)
	next := w.streams(shapes, cfg.Seed, salt)
	per := time.Duration(cfg.Seconds / float64(cfg.Reps) * float64(time.Second))
	var (
		reps   []rep
		setups []float64
		warm   rep
		rss    float64
	)
	for i := 0; i < cfg.Reps; i++ {
		sess, err := setUp(ctx, cfg, w, shapes, false, salt)
		if err != nil {
			return summary{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		r, err := measure(ctx, w, sess, next, per)
		rss = max(rss, sess.d.peakRSSMB())
		sess.close()
		if err != nil {
			return summary{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		reps = append(reps, r)
		setups = append(setups, sess.setupS)
		warm.count(sess.warm)
	}
	sum := summarize(reps, w.Window.Seconds(), w.Clients == 0)
	// Set-up traffic is verified and counted, but never timed.
	sum.Ops += warm.OK + warm.Failed
	sum.Failed += warm.Failed
	sum.TierNotVM += warm.TierNotVM
	sum.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Spread: spread(setups), Reps: setups}
	sum.Metrics["daemon.peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	return sum, nil
}
