package loadgen

import (
	"context"
	"flag"
	"net"
	"runtime"
	"testing"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/wire"
)

// -load sizes the smoke's submission phase; CI's load-smoke job raises
// it to 30s.
var loadDur = flag.Duration("load", 2*time.Second, "load-smoke submission phase duration")

func TestShapesDistinct(t *testing.T) {
	shapes := Shapes(16, 8, 1)
	seen := map[Shape]bool{}
	for _, s := range shapes {
		if seen[s] {
			t.Fatalf("duplicate shape %+v", s)
		}
		seen[s] = true
		if s.Salt > 0 && s.Salt < s.Tuples {
			t.Fatalf("shape %+v: salt below tuples would not conform", s)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 0; i < 90; i++ {
		h.record(3 * time.Microsecond) // bucket [2µs,4µs)
	}
	for i := 0; i < 10; i++ {
		h.record(1500 * time.Microsecond) // bucket [1024µs,2048µs)
	}
	if p50 := h.quantile(0.50); p50 != 4*time.Microsecond {
		t.Fatalf("p50 = %v, want 4µs upper bound", p50)
	}
	if p99 := h.quantile(0.99); p99 != 2048*time.Microsecond {
		t.Fatalf("p99 = %v, want 2048µs upper bound", p99)
	}
}

// TestLoadSmoke is the CI load-smoke: a zipf closed-loop run against a
// coalescing engine must serve traffic on both lanes, coalesce
// at least one multi-request vm batch on the hot shape, keep the
// engine's books balanced, and leak no goroutines after shutdown. All
// assertions are core-count independent — the smoke validates behavior,
// not speedup.
func TestLoadSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	eng := engine.New(engine.Config{
		Workers:      4,
		BatchMaxSize: 8,
		BatchWindow:  2 * time.Millisecond,
	})
	cfg := Config{
		Clients:  8,
		Shapes:   12,
		Tuples:   8,
		ZipfS:    2.0,
		Duration: *loadDur,
		Seed:     7,
	}
	target, err := NewEngineTarget(eng, Shapes(cfg.Shapes, cfg.Tuples, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(cfg, target)
	t.Logf("\n%s", rep)

	if rep.Counts[ClassOK] == 0 {
		t.Fatal("no request served")
	}
	if n := rep.Counts[ClassInternal] + rep.Counts[ClassInvalid] + rep.Counts[ClassTransport]; n != 0 {
		t.Fatalf("unexpected failures: %v", rep.Counts)
	}
	var total int64
	for _, v := range rep.Counts {
		total += v
	}
	if total != rep.Submitted {
		t.Fatalf("outcome buckets sum to %d, submitted %d", total, rep.Submitted)
	}

	snap := eng.Metrics()
	if snap.Batches == 0 {
		t.Fatal("no vm batch dispatched")
	}
	coalesced := int64(0)
	for i := 1; i < len(snap.BatchSizes); i++ {
		coalesced += snap.BatchSizes[i]
	}
	if coalesced == 0 {
		t.Fatalf("no coalesced (size>1) batch under zipf load; sizes=%v", snap.BatchSizes)
	}
	t.Logf("batches=%d coalesced=%d sizes=%v", snap.Batches, coalesced, snap.BatchSizes)

	if snap.Requests != rep.Submitted {
		t.Fatalf("engine saw %d requests, clients submitted %d", snap.Requests, rep.Submitted)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Goroutine-leak check: everything the engine and harness spawned
	// must wind down; a small slack covers runtime background goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoadWireTarget runs a short closed loop through the full network
// stack — loadgen client → wire protocol → engine — and checks
// the outcome classes line up with what the server reports.
func TestLoadWireTarget(t *testing.T) {
	before := runtime.NumGoroutine()

	eng := engine.New(engine.Config{Workers: 2, BatchMaxSize: 4})
	srv := wire.NewServer(eng, wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	target, err := DialWire(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(Config{
		Clients:  4,
		Shapes:   6,
		Tuples:   8,
		Duration: 500 * time.Millisecond,
		Seed:     11,
	}, target)
	t.Logf("\n%s", rep)

	if rep.Counts[ClassOK] == 0 {
		t.Fatal("no request served over the wire")
	}
	if n := rep.Counts[ClassTransport] + rep.Counts[ClassInvalid]; n != 0 {
		t.Fatalf("unexpected failures: %v", rep.Counts)
	}
	if m := eng.Metrics(); m.Requests != rep.Submitted {
		t.Fatalf("engine saw %d requests, clients submitted %d", m.Requests, rep.Submitted)
	}

	target.Close()
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
