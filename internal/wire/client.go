package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed resolves requests outstanding when the client (or its
// connection) goes away.
var ErrClientClosed = errors.New("wire: client closed")

// Client multiplexes concurrent requests over one connection: callers
// from any goroutine Do requests, frames interleave whole (a write
// mutex serializes them), and a single reader goroutine routes
// responses back by ID — so N in-flight requests cost one socket, and a
// pipelined burst needs no client-side ordering.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	mu     sync.Mutex
	pend   map[uint64]chan Response
	err    error // terminal error, set before done closes
	done   chan struct{}
	nextID atomic.Uint64
}

// Dial connects a client to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, so tests can
// use net.Pipe) and starts its reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		pend: map[uint64]chan Response{},
		done: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		resp, err := ReadResponse(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		c.mu.Lock()
		ch := c.pend[resp.ID]
		delete(c.pend, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp // buffered; never blocks
		}
	}
}

// fail resolves every pending request with err and marks the client
// dead. Idempotent.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = err
	close(c.done)
	for id, ch := range c.pend {
		delete(c.pend, id)
		ch <- Response{ID: id, Status: StatusCanceled, Err: err.Error()}
	}
}

// Close tears the connection down; outstanding requests resolve with
// StatusCanceled.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
}

// Do sends one request and waits for its response. The ID is assigned
// here (any value the caller set is overwritten). A request deadline is
// taken from ctx when the request carries none, so the server stops
// working on what the caller stopped waiting for. Safe for concurrent
// use; responses arriving out of order are routed by ID.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	req.ID = c.nextID.Add(1)
	if req.Deadline == 0 && ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem > 0 {
				req.Deadline = rem
			}
		}
	}

	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	c.pend[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := WriteRequest(c.bw, req)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pend, req.ID)
		c.mu.Unlock()
		// The request whose write hit the dead connection gets the same
		// typed error as the ones fail resolves.
		err = fmt.Errorf("%w: %v", ErrClientClosed, err)
		c.fail(err)
		return Response{}, err
	}

	select {
	case resp := <-ch:
		return resp, nil
	case <-ctxDone(ctx):
		c.mu.Lock()
		delete(c.pend, req.ID)
		c.mu.Unlock()
		return Response{}, ctx.Err()
	case <-c.done:
		// The reader may have routed our response in the same instant.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		c.mu.Lock()
		err := c.err
		delete(c.pend, req.ID)
		c.mu.Unlock()
		return Response{}, err
	}
}
