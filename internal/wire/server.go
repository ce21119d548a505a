package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/guard"
	"circuitql/internal/workload"
)

// Evaluator is the engine surface the server drives: Submit enqueues
// one request and resolves exactly one result on the returned channel.
// Both *engine.Engine and the circuitql facade satisfy it.
type Evaluator interface {
	Submit(ctx context.Context, req engine.Request) <-chan engine.Result
}

// ServerConfig tunes a wire server. The zero value selects defaults.
type ServerConfig struct {
	// Tuples is the generated rows per relation when a request leaves
	// Tuples at 0. Defaults to 16.
	Tuples int
	// Seed seeds the workload generator when a request leaves Seed at
	// 0. Defaults to 1.
	Seed int64
	// MaxDeadline caps (and, when a request carries none, supplies) the
	// per-request deadline. 0 means no cap and no default.
	MaxDeadline time.Duration
	// ConnInFlight caps outstanding requests per connection; the reader
	// stops pulling frames past it, so a client flooding one connection
	// backpressures on the socket instead of ballooning server memory.
	// Defaults to 64.
	ConnInFlight int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Tuples <= 0 {
		c.Tuples = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ConnInFlight <= 0 {
		c.ConnInFlight = 64
	}
	return c
}

// shapeKey identifies a parsed request shape: the server-side artifacts
// (parsed query, derived constraints, generated database, and what
// engine.Prepare derives from the first two) are pure functions of these
// fields, so they are built once and shared across requests — admission,
// packing and evaluation never mutate them.
type shapeKey struct {
	query  string
	dcs    string
	tuples uint32
	seed   int64
}

// maxShapes bounds the shape memo; reaching it resets the memo.
const maxShapes = 4096

// shape is one memo entry. It is inserted empty and built through once,
// so concurrent first requests of a shape build it one time and all
// hand the engine the same request.
type shape struct {
	once sync.Once
	req  engine.Request
	err  error
}

// Server serves the wire protocol over a listener: one reader and one
// writer goroutine per connection, engine dispatch in between.
//
// Write serialization: every response is sent to the connection's
// writer goroutine over a channel, and only that goroutine touches the
// socket — concurrent request completions can never interleave bytes
// mid-frame. Responses leave in completion order, not request order;
// clients correlate by ID.
//
// Drain: Shutdown closes the listener and half-closes every
// connection's read side, so no new requests are accepted while
// in-flight ones keep their engine slots and get their responses
// flushed. Past the context's deadline the engine-bound contexts are
// canceled (in-flight requests then resolve promptly with typed errors)
// and connections are torn down.
type Server struct {
	ev  Evaluator
	cfg ServerConfig

	reqCtx    context.Context // parent of every request context
	reqCancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	shapeMu sync.RWMutex
	shapes  map[shapeKey]*shape

	wg sync.WaitGroup // one unit per live connection handler
}

// NewServer wraps an evaluator.
func NewServer(ev Evaluator, cfg ServerConfig) *Server {
	s := &Server{
		ev:     ev,
		cfg:    cfg.withDefaults(),
		conns:  map[net.Conn]struct{}{},
		shapes: map[shapeKey]*shape{},
	}
	s.reqCtx, s.reqCancel = context.WithCancel(context.Background())
	return s
}

// Serve accepts connections until the listener closes (Shutdown does
// that), handling each on its own goroutines. It returns nil after a
// Shutdown-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// closeRead half-closes a connection so its reader sees EOF while
// queued responses still flush out the write side.
func closeRead(conn net.Conn) {
	type readCloser interface{ CloseRead() error }
	if rc, ok := conn.(readCloser); ok {
		rc.CloseRead() //nolint:errcheck // best effort
		return
	}
	conn.SetReadDeadline(time.Now()) //nolint:errcheck // best effort
}

// Shutdown drains the server: stop accepting (listener closed), stop
// reading (connections half-closed), let in-flight requests finish and
// their responses flush, then tear down. When ctx expires first, every
// request context is canceled — the engine resolves them promptly with
// typed errors — and connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		closeRead(conn)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close() //nolint:errcheck // double-close is benign
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctxDone(ctx):
		err = ctx.Err()
		s.reqCancel()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close() //nolint:errcheck // teardown
		}
		s.mu.Unlock()
		<-done
	}
	s.reqCancel()
	return err
}

func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// handle runs one connection: a reader loop (this goroutine), a writer
// goroutine owning the socket's write side, and one goroutine per
// in-flight request awaiting its engine result.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close() //nolint:errcheck // teardown
	}()

	writeCh := make(chan Response, s.cfg.ConnInFlight)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		bw := bufio.NewWriter(conn)
		for resp := range writeCh {
			if err := WriteResponse(bw, resp); err != nil {
				// The peer is gone; drain remaining responses so request
				// goroutines never block on writeCh.
				for range writeCh {
				}
				return
			}
			// Flush when no response is immediately pending, so
			// back-to-back completions batch into one syscall.
			if len(writeCh) == 0 {
				if err := bw.Flush(); err != nil {
					for range writeCh {
					}
					return
				}
			}
		}
		bw.Flush() //nolint:errcheck // peer may be gone
	}()

	sem := make(chan struct{}, s.cfg.ConnInFlight)
	var pending sync.WaitGroup
	br := bufio.NewReader(conn)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			break // EOF, peer teardown, or drain's half-close
		}
		sem <- struct{}{} // connection in-flight cap; socket backpressure past it
		pending.Add(1)
		go func(req Request) {
			defer pending.Done()
			defer func() { <-sem }()
			writeCh <- s.dispatch(req)
		}(req)
	}
	// The read side is done (EOF or drain): finish in-flight requests,
	// flush their responses, then release the writer.
	pending.Wait()
	close(writeCh)
	writerWG.Wait()
}

// dispatch maps one wire request onto the engine: resolve its shape
// (cached), build the request context (deadline, priority), submit, and
// translate the result.
func (s *Server) dispatch(req Request) Response {
	resp := Response{ID: req.ID}
	ereq, err := s.shapeFor(req)
	if err != nil {
		resp.Status, resp.Err = StatusInvalid, err.Error()
		return resp
	}

	ctx := s.reqCtx
	if req.Priority != 0 {
		p := engine.PriorityHigh
		if req.Priority < 0 {
			p = engine.PriorityLow
		}
		ctx = engine.WithPriority(ctx, p)
	}
	deadline := req.Deadline
	if s.cfg.MaxDeadline > 0 && (deadline == 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	res := <-s.ev.Submit(ctx, ereq)
	resp.CacheHit = res.CacheHit
	resp.Tier = res.Tier
	resp.Fingerprint = res.Fingerprint.Short()
	resp.CompileTime = res.CompileTime
	resp.EvalTime = res.EvalTime
	if res.Err != nil {
		resp.Status = statusOf(res.Err)
		resp.Err = res.Err.Error()
		var ov *guard.OverloadError
		if errors.As(res.Err, &ov) {
			resp.RetryAfter = ov.RetryAfter
		}
		return resp
	}
	if res.Output != nil {
		resp.Rows = uint32(res.Output.Len())
	}
	return resp
}

// statusOf classifies an engine error onto the wire taxonomy.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, guard.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, guard.ErrCanceled):
		return StatusCanceled
	case errors.Is(err, guard.ErrBudgetExceeded):
		return StatusBudget
	case errors.Is(err, guard.ErrInvalidInput):
		return StatusInvalid
	default:
		return StatusInternal
	}
}

// shapeFor resolves a request's engine.Request: parse the query,
// generate its seeded workload, derive constraints, merge extras,
// prepare — memoized per (query, dcs, tuples, seed) since request shapes
// repeat heavily under serving load, DeriveDC walks the whole database
// and canonicalization is the largest non-circuit step of a hit.
func (s *Server) shapeFor(req Request) (engine.Request, error) {
	key := shapeKey{query: req.Query, dcs: req.DCs, tuples: req.Tuples, seed: req.Seed}
	s.shapeMu.RLock()
	sh := s.shapes[key]
	s.shapeMu.RUnlock()
	if sh == nil {
		s.shapeMu.Lock()
		if sh = s.shapes[key]; sh == nil {
			// Bound the memo: a vocabulary explosion (fuzzed shapes, salted
			// constraints) resets it rather than growing without limit.
			if len(s.shapes) >= maxShapes {
				s.shapes = map[shapeKey]*shape{}
			}
			sh = &shape{}
			s.shapes[key] = sh
		}
		s.shapeMu.Unlock()
	}
	sh.once.Do(func() { sh.req, sh.err = s.buildShape(req) })
	return sh.req, sh.err
}

func (s *Server) buildShape(req Request) (engine.Request, error) {
	tuples := int(req.Tuples)
	if tuples == 0 {
		tuples = s.cfg.Tuples
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	q, dcs, db, err := workload.Instance(req.Query, req.DCs, seed, tuples)
	if err != nil {
		return engine.Request{}, fmt.Errorf("%w: %v", guard.ErrInvalidInput, err)
	}
	return engine.Prepare(engine.Request{Query: q, DCs: dcs, DB: db}), nil
}
