package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/query"
)

func TestFrameRoundTrip(t *testing.T) {
	reqs := []Request{
		{},
		{ID: 1, Query: "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"},
		{ID: 1<<64 - 1, Priority: -1, Deadline: 250 * time.Millisecond,
			Tuples: 4096, Seed: -7, Query: "Q(A,B) :- R(A,B)", DCs: "R <= 64, S|A <= 2"},
		{ID: 7, Priority: 1, Query: "π — unicode ≤ in query text"},
	}
	for i, req := range reqs {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if got != req {
			t.Fatalf("req %d round trip:\n got %+v\nwant %+v", i, got, req)
		}
	}

	resps := []Response{
		{},
		{ID: 9, Status: StatusOK, CacheHit: true, Tier: "vm", Rows: 42,
			Fingerprint: "deadbeef01234567", CompileTime: time.Second, EvalTime: 3 * time.Millisecond},
		{ID: 10, Status: StatusOverloaded, RetryAfter: 5 * time.Millisecond,
			Err: "overloaded: miss lane shed request (queue_full)"},
	}
	for i, resp := range resps {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		if got != resp {
			t.Fatalf("resp %d round trip:\n got %+v\nwant %+v", i, got, resp)
		}
	}
}

// TestWriteFrameAllocatesOnce: a message is sized up front and built
// behind its own length prefix, so writing it costs the one buffer — a
// size constant that fell behind the fields would show as a regrowth.
func TestWriteFrameAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	req := Request{ID: 3, Priority: 1, Deadline: time.Second, Tuples: 16, Seed: 9,
		Query: "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", DCs: "R <= 64, S|A <= 2"}
	resp := Response{ID: 3, Status: StatusOverloaded, CacheHit: true, Tier: "vm", Rows: 42,
		Fingerprint: "deadbeef01234567", EvalTime: time.Millisecond, Err: "overloaded: queue_full"}
	for name, write := range map[string]func() error{
		"request":  func() error { return WriteRequest(io.Discard, req) },
		"response": func() error { return WriteResponse(io.Discard, resp) },
	} {
		if n := testing.AllocsPerRun(200, func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%s: %v allocations per frame, want 1", name, n)
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadRequest(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload: a frame claiming more bytes than present.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 50, kindRequest, version})
	if _, err := ReadRequest(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// A response frame where a request is expected.
	buf.Reset()
	if err := WriteResponse(&buf, Response{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(&buf); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// A string length running past the payload.
	e := newEnc(0)
	e.u8(kindRequest)
	e.u8(version)
	e.u64(1)       // id
	e.u8(0)        // priority
	e.u64(0)       // deadline
	e.u32(0)       // tuples
	e.u64(0)       // seed
	e.u32(1 << 30) // query length lying about the payload
	buf.Reset()
	if err := writeFrame(&buf, e); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(&buf); err == nil {
		t.Fatal("lying string length accepted")
	}
}

// startServer runs a wire server over a fresh engine on a
// loopback listener, returning its address and a cleanup-registered
// shutdown.
func startServer(t *testing.T, ecfg engine.Config, scfg ServerConfig) (string, *Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(ecfg)
	t.Cleanup(func() { eng.Close() })
	srv := NewServer(eng, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // teardown
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), srv, eng
}

const triangleQ = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"

func TestServerEndToEnd(t *testing.T) {
	addr, _, eng := startServer(t,
		engine.Config{Workers: 2, BatchMaxSize: 4},
		ServerConfig{Tuples: 8})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cold, err := c.Do(context.Background(), Request{Query: triangleQ})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != StatusOK {
		t.Fatalf("cold: status=%v err=%q", cold.Status, cold.Err)
	}
	if cold.CacheHit || cold.Fingerprint == "" {
		t.Fatalf("cold: hit=%v fp=%q", cold.CacheHit, cold.Fingerprint)
	}
	warm, err := c.Do(context.Background(), Request{Query: triangleQ})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOK || !warm.CacheHit || warm.Rows != cold.Rows || warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("warm: %+v (cold %+v)", warm, cold)
	}

	// A malformed query classifies as invalid, not a transport error.
	bad, err := c.Do(context.Background(), Request{Query: "this is not a query"})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Status != StatusInvalid || bad.Err == "" {
		t.Fatalf("bad query: %+v", bad)
	}

	// An expired deadline classifies as a deadline failure.
	late, err := c.Do(context.Background(), Request{Query: triangleQ, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if late.Status != StatusDeadline {
		t.Fatalf("late: status=%v err=%q", late.Status, late.Err)
	}

	if m := eng.Metrics(); m.Requests == 0 {
		t.Fatal("engine saw no requests")
	}
}

// TestPipelinedWritesDoNotInterleave is the response-stream regression:
// a client pipelines a burst of requests over one raw connection
// without reading, so many completions race at the server concurrently;
// every response frame must still decode cleanly and the IDs must come
// back exactly once each. Interleaved writes from concurrent
// completions would corrupt the framing and fail the decode.
func TestPipelinedWritesDoNotInterleave(t *testing.T) {
	addr, _, _ := startServer(t,
		engine.Config{Workers: 4, BatchMaxSize: 4},
		ServerConfig{Tuples: 8, ConnInFlight: 128})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const burst = 64
	bw := bufio.NewWriter(conn)
	for i := 0; i < burst; i++ {
		// Mixed shapes (salted constraints) so completions finish out of
		// order: some hit warm plans, some compile.
		req := Request{
			ID:    uint64(i + 1),
			Query: triangleQ,
			DCs:   fmt.Sprintf("R <= %d", 64+i%4),
		}
		if err := WriteRequest(bw, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]bool{}
	br := bufio.NewReader(conn)
	for i := 0; i < burst; i++ {
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute)) //nolint:errcheck
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d failed to decode (stream corrupt?): %v", i, err)
		}
		if resp.ID < 1 || resp.ID > burst {
			t.Fatalf("response carries unknown id %d", resp.ID)
		}
		if seen[resp.ID] {
			t.Fatalf("duplicate response for id %d", resp.ID)
		}
		seen[resp.ID] = true
		if resp.Status != StatusOK {
			t.Fatalf("id %d: status=%v err=%q", resp.ID, resp.Status, resp.Err)
		}
	}
}

// TestClientConcurrent: goroutines sharing one client each get the
// response to their own request — statuses correlate with what each
// goroutine sent even though responses arrive out of order.
func TestClientConcurrent(t *testing.T) {
	addr, _, _ := startServer(t,
		engine.Config{Workers: 2, BatchMaxSize: 4},
		ServerConfig{Tuples: 8})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%4 == 3 {
					resp, err := c.Do(context.Background(), Request{Query: "nonsense"})
					if err != nil {
						t.Error(err)
						return
					}
					if resp.Status != StatusInvalid {
						t.Errorf("goroutine %d: got %v for an invalid query", g, resp.Status)
					}
					continue
				}
				resp, err := c.Do(context.Background(), Request{Query: triangleQ})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Status != StatusOK {
					t.Errorf("goroutine %d: %v %q", g, resp.Status, resp.Err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerShutdownDrains: a shutdown with headroom lets in-flight
// requests finish and flush before connections close; afterwards the
// listener no longer accepts.
func TestServerShutdownDrains(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	srv := NewServer(eng, ServerConfig{Tuples: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Warm one plan so drained traffic has in-flight work to finish.
	if resp, err := c.Do(context.Background(), Request{Query: triangleQ}); err != nil || resp.Status != StatusOK {
		t.Fatalf("warm: %v %+v", err, resp)
	}

	// Requests racing the drain either land before the read half-close
	// (served, responses flushed) or after it (never read; they resolve
	// as canceled when the connection tears down). Both are orderly; a
	// decode failure or an untyped error is the bug.
	type outcome struct {
		resp Response
		err  error
	}
	results := make(chan outcome, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := c.Do(context.Background(), Request{Query: triangleQ})
			results <- outcome{resp, err}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain overran its bound: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	served := 0
	for i := 0; i < 8; i++ {
		o := <-results
		switch {
		case o.err != nil && !errors.Is(o.err, ErrClientClosed):
			t.Fatalf("drained request: %v", o.err)
		case o.err == nil && o.resp.Status == StatusOK:
			served++
		case o.err == nil && o.resp.Status != StatusCanceled:
			t.Fatalf("drained request: status %v: %s", o.resp.Status, o.resp.Err)
		}
	}
	t.Logf("drain served %d/8 racing requests", served)
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// captureEval answers at once and records the query pointer of every
// request it is handed.
type captureEval struct {
	mu      sync.Mutex
	queries []*query.Query
}

func (c *captureEval) Submit(_ context.Context, req engine.Request) <-chan engine.Result {
	c.mu.Lock()
	c.queries = append(c.queries, req.Query)
	c.mu.Unlock()
	out := make(chan engine.Result, 1)
	out <- engine.Result{}
	return out
}

// TestShapeBuiltOnceUnderConcurrency: concurrent first requests of one
// shape build it once — every one of them hands the evaluator the same
// parsed query (and so the same prepared request), not a private copy.
func TestShapeBuiltOnceUnderConcurrency(t *testing.T) {
	ev := &captureEval{}
	srv := NewServer(ev, ServerConfig{Tuples: 8})
	const n = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if resp := srv.dispatch(Request{ID: uint64(i), Query: triangleQ}); resp.Status != StatusOK {
				t.Errorf("request %d: status %v: %s", i, resp.Status, resp.Err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if len(ev.queries) != n {
		t.Fatalf("evaluator saw %d requests, want %d", len(ev.queries), n)
	}
	for i, q := range ev.queries {
		if q == nil || q != ev.queries[0] {
			t.Fatalf("request %d was handed query %p, request 0 %p: the shape was built more than once", i, q, ev.queries[0])
		}
	}
}

// TestShapeMemoBounded: the shape memo never holds more than maxShapes
// entries — one more distinct shape resets it — and a shape evicted by
// the reset is simply built again.
func TestShapeMemoBounded(t *testing.T) {
	srv := NewServer(&captureEval{}, ServerConfig{Tuples: 1})
	shapeN := func(i int) Request { return Request{Query: "Q(A) :- R(A)", Seed: int64(i + 1)} }
	for i := 0; i < maxShapes; i++ {
		if _, err := srv.shapeFor(shapeN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(srv.shapes); got != maxShapes {
		t.Fatalf("memo holds %d shapes after %d distinct requests, want %d", got, maxShapes, maxShapes)
	}
	first, err := srv.shapeFor(shapeN(0))
	if err != nil || len(srv.shapes) != maxShapes {
		t.Fatalf("a memoized shape moved the memo: err=%v len=%d", err, len(srv.shapes))
	}
	if _, err := srv.shapeFor(shapeN(maxShapes)); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.shapes); got != 1 {
		t.Fatalf("memo holds %d shapes after overflowing, want 1 (reset, then the new shape)", got)
	}
	again, err := srv.shapeFor(shapeN(0))
	if err != nil {
		t.Fatal(err)
	}
	if again.Query == first.Query {
		t.Fatal("shape 0 survived the reset")
	}
	if again.Query.String() != first.Query.String() || len(srv.shapes) != 2 {
		t.Fatalf("rebuilt shape 0 = %s (memo %d), want %s (memo 2)", again.Query, len(srv.shapes), first.Query)
	}
}
