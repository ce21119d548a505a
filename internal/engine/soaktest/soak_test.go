package soaktest

import (
	"context"
	"errors"
	"flag"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/guard"
)

// -soak bounds the main chaos phase. The default keeps `go test ./...`
// fast; CI's soak job raises it (e.g. -soak 30s) for a real shake.
var soakDur = flag.Duration("soak", 2*time.Second, "chaos soak duration")

// TestSoakChaos is the headline harness run: concurrent zipf-skewed
// clients, faults at every site, tight deadlines, low priorities, and a
// Close-racing drain wave. Asserts typed errors only, bounded queues,
// ledger reconciliation, and no goroutine leaks.
func TestSoakChaos(t *testing.T) {
	before := runtime.NumGoroutine()

	rep, snap, err := Run(Config{
		Clients:   12,
		Shapes:    25,
		Duration:  *soakDur,
		ZipfS:     1.4,
		FaultRate: 0.01,
		Deadline:  3 * time.Millisecond,
		Seed:      1,
		Engine: engine.Config{
			Workers:        4,
			MissWorkers:    2,
			QueueDepth:     8,
			MissQueueDepth: 4,
			ShedPolicy:     engine.ShedAdaptive,
			NegativeTTL:    100 * time.Millisecond,
			MaxCacheGates:  1 << 20, // small enough to force evictions
		},
	})
	if err != nil {
		t.Fatalf("engine close: %v", err)
	}
	t.Logf("soak: %s", rep.String())
	t.Logf("soak: max queued per lane: %v, critical=%v", rep.MaxQueued, snap.Critical)

	if rep.Submitted == 0 || rep.Served == 0 {
		t.Fatalf("soak produced no traffic: %s", rep.String())
	}
	for i, e := range rep.Untyped {
		if i < 5 {
			t.Errorf("untyped error escaped the taxonomy: %v", e)
		}
	}
	if len(rep.Untyped) > 0 {
		t.Fatalf("%d untyped errors total", len(rep.Untyped))
	}
	if rep.OverBounded {
		t.Fatalf("a lane queue was observed above its capacity: %v", rep.MaxQueued)
	}
	if err := Reconcile(rep, snap); err != nil {
		t.Fatal(err)
	}

	// Goroutine-leak check: everything the engine and harness spawned
	// must be gone once Close returns (grace for runtime bookkeeping).
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d before, %d after close\n%s", before, g, buf[:runtime.Stack(buf, true)])
	}
}

// TestSoakShedsAreTyped drives a tiny engine far past its queue bounds
// and asserts every rejection is a *guard.OverloadError with a usable
// retry hint, never a bare or untyped error.
func TestSoakShedsAreTyped(t *testing.T) {
	eng := engine.New(engine.Config{
		Workers: 1, MissWorkers: 1, QueueDepth: 1, MissQueueDepth: 1,
		ShedPolicy: engine.ShedOnFull,
	})
	defer eng.Close()

	// Concurrent burst: every request is a distinct fingerprint (salted
	// constraint, constant database size), so all are compile misses and
	// the 1-deep miss lane must shed most of them.
	const burst = 200
	chans := make([]<-chan engine.Result, 0, burst)
	for i := 0; i < burst; i++ {
		req, err := makeRequest("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", int64(i), 8, 1000+i)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, eng.Submit(context.Background(), req))
	}
	sheds, served := 0, 0
	for _, ch := range chans {
		res := <-ch
		switch {
		case res.Err == nil:
			served++
		case errors.Is(res.Err, guard.ErrOverloaded):
			var oe *guard.OverloadError
			if !errors.As(res.Err, &oe) {
				t.Fatalf("overload without *OverloadError: %v", res.Err)
			}
			if oe.Lane != "miss" || oe.Reason != "queue_full" {
				t.Fatalf("unexpected shed fields: %+v", oe)
			}
			sheds++
		default:
			t.Fatalf("untyped rejection: %v", res.Err)
		}
	}
	if sheds == 0 {
		t.Fatal("a 1-worker engine absorbed 200 concurrent distinct compiles without shedding")
	}
	t.Logf("%d submits: %d served, %d shed", burst, served, sheds)
}

// TestSoakHitLaneLatencyUnderSaturation is the acceptance criterion:
// with the miss lane saturated by a flood of distinct compile-heavy
// shapes, cached-hit latency must stay within 2x its unloaded p95 (with
// a 25ms floor for scheduler noise) while the flood sheds with
// ErrOverloaded instead of queueing unboundedly.
func TestSoakHitLaneLatencyUnderSaturation(t *testing.T) {
	eng := engine.New(engine.Config{
		Workers: 2, MissWorkers: 1, MissQueueDepth: 2,
		ShedPolicy:    engine.ShedOnFull,
		MaxCacheGates: 1 << 30, // eviction is not under test here
	})
	defer eng.Close()

	warm, err := makeRequest("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 7, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-eng.Submit(context.Background(), warm); res.Err != nil {
		t.Fatal(res.Err)
	}

	serveP95 := func(rounds int) time.Duration {
		lat := make([]time.Duration, 0, rounds)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			res := <-eng.Submit(context.Background(), warm)
			if res.Err != nil {
				t.Fatalf("warm serve failed: %v", res.Err)
			}
			if !res.CacheHit {
				t.Fatal("warm serve missed the cache")
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[rounds*95/100]
	}

	unloaded := serveP95(200)

	// Flood: unlimited distinct fingerprints against one miss worker.
	// Submissions are fire-and-forget (a reader goroutine collects each
	// result) so the miss queue actually fills and stays full.
	stop := make(chan struct{})
	floodDone := make(chan struct{})
	var sheds, untypedFlood atomic.Int64
	go func() {
		defer close(floodDone)
		var readers sync.WaitGroup
		defer readers.Wait()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req, err := makeRequest("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", int64(1000+i), 8, 5000+i)
			if err != nil {
				untypedFlood.Add(1)
				return
			}
			ch := eng.Submit(context.Background(), req)
			readers.Add(1)
			go func() {
				defer readers.Done()
				res := <-ch
				if res.Err != nil {
					if errors.Is(res.Err, guard.ErrOverloaded) {
						sheds.Add(1)
					} else {
						untypedFlood.Add(1)
					}
				}
			}()
			time.Sleep(100 * time.Microsecond) // keep pressure without a spin storm
		}
	}()
	// Let the flood fill the miss lane before measuring.
	for waitUntil := time.Now().Add(5 * time.Second); eng.Metrics().Lanes[1].Queued < 2 && time.Now().Before(waitUntil); {
		time.Sleep(time.Millisecond)
	}

	loaded := serveP95(200)
	// Keep the flood running until it demonstrably sheds: the queue is
	// bounded, so continued pressure must produce an overload rejection.
	for waitUntil := time.Now().Add(5 * time.Second); sheds.Load() == 0 && time.Now().Before(waitUntil); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-floodDone

	if n := untypedFlood.Load(); n > 0 {
		t.Fatalf("%d flood requests failed with untyped errors", n)
	}
	if sheds.Load() == 0 {
		t.Fatal("flood was never shed — misses queued unboundedly")
	}
	bound := 2 * unloaded
	if floor := 25 * time.Millisecond; bound < floor {
		bound = floor
	}
	if loaded > bound {
		t.Fatalf("hit-lane p95 under saturation = %v, want <= %v (unloaded %v)", loaded, bound, unloaded)
	}
	t.Logf("hit p95: unloaded=%v loaded=%v sheds=%d", unloaded, loaded, sheds.Load())
}

// TestSoakDrainingRejectionsAreTyped covers the drain contract on its
// own: once Close begins, new submissions under a shedding policy get a
// draining OverloadError, and Close still returns cleanly.
func TestSoakDrainingRejectionsAreTyped(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, MissWorkers: 1, ShedPolicy: engine.ShedOnFull})
	req, err := makeRequest("Q(A,B) :- R(A,B), S(A,B)", 3, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-eng.Submit(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-eng.Submit(context.Background(), req)
	var oe *guard.OverloadError
	if !errors.As(res.Err, &oe) || oe.Reason != "draining" {
		t.Fatalf("post-close submit returned %v, want a draining OverloadError", res.Err)
	}
	if !errors.Is(res.Err, guard.ErrOverloaded) {
		t.Fatalf("draining rejection does not match ErrOverloaded: %v", res.Err)
	}
}
