// Package wire is circuitd's concurrent binary protocol: length-
// prefixed frames over a byte stream, a multiplexing client, and a
// server that maps wire requests onto the serving engine's admission
// machinery (deadlines, priorities, typed overload errors).
//
// Framing: every message is a 4-byte big-endian payload length followed
// by the payload; the first payload byte is the message kind (request
// or response), the second a protocol version. Integers are big-endian
// fixed width, strings are u32-length-prefixed UTF-8, durations are
// int64 nanoseconds. Frames are capped at MaxFrame so a corrupt or
// malicious length prefix cannot balloon allocation.
//
// Requests carry an ID chosen by the client; responses echo it.
// Responses may return out of order — the server completes requests as
// the engine does — so a client pipelines freely and correlates by ID.
// Writes are serialized per connection on both sides (one writer
// goroutine on the server, a write mutex on the client), so concurrent
// completions can never interleave bytes within the stream.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

const (
	// MaxFrame caps one message's payload.
	MaxFrame = 1 << 20
	// version is the protocol revision, checked on decode.
	version = 1

	kindRequest  = 0x51 // 'Q'
	kindResponse = 0x41 // 'A'
)

// Status classifies a response, mirroring the guard error taxonomy so
// clients can branch without parsing error strings.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	// StatusInvalid: the request was malformed (parse error, non-full
	// query validation failure, bad database).
	StatusInvalid
	// StatusOverloaded: admission control shed the request; RetryAfter
	// may carry a hint.
	StatusOverloaded
	// StatusDeadline: the request's deadline expired mid-pipeline.
	StatusDeadline
	// StatusCanceled: the request was canceled (client gone, server
	// draining past its bound).
	StatusCanceled
	// StatusBudget: a resource budget (gates, rows) was exhausted.
	StatusBudget
	// StatusInternal: the engine failed internally; the request may
	// succeed on retry.
	StatusInternal
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalid:
		return "invalid"
	case StatusOverloaded:
		return "overloaded"
	case StatusDeadline:
		return "deadline"
	case StatusCanceled:
		return "canceled"
	case StatusBudget:
		return "budget"
	case StatusInternal:
		return "internal"
	}
	return "unknown"
}

// Request is one wire evaluation request. The server generates the
// request's database (workload.ForQuery with Tuples rows per relation,
// seeded by Seed) and derives degree constraints from it, merging in
// any extra constraints from DCs — the same semantics as a circuitd
// stdin line, so wire traffic and stdin traffic hit the same plans.
type Request struct {
	// ID correlates the response; chosen by the client, echoed by the
	// server. Unique per connection among in-flight requests.
	ID uint64
	// Priority orders shedding under adaptive load: <0 low, 0 normal,
	// >0 high (engine.Priority).
	Priority int8
	// Deadline bounds the request's wall clock server-side; 0 means
	// none (the server may still impose its own cap).
	Deadline time.Duration
	// Tuples is the generated rows per relation; 0 selects the server
	// default.
	Tuples uint32
	// Seed seeds the workload generator; 0 selects the server default.
	Seed int64
	// Query is the conjunctive query source, e.g.
	// "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)".
	Query string
	// DCs optionally adds degree constraints, e.g. "R <= 64, S|A <= 2".
	DCs string
}

// Response is one wire evaluation result.
type Response struct {
	// ID echoes the request's ID.
	ID     uint64
	Status Status
	// CacheHit reports the plan came from the cache (hit lane).
	CacheHit bool
	// Tier names the evaluation tier that served ("vm" or "ram").
	Tier string
	// Rows is the output cardinality.
	Rows uint32
	// Fingerprint is the plan's short canonical fingerprint (hex).
	Fingerprint string
	// CompileTime / EvalTime are the server-side stage timings.
	CompileTime time.Duration
	EvalTime    time.Duration
	// RetryAfter hints when a shed request is worth retrying (0: none).
	RetryAfter time.Duration
	// Err describes the failure for non-OK statuses.
	Err string
}

// enc appends fixed-width fields to a frame buffer: the 4 bytes of the
// length prefix, which writeFrame fills in, then the payload.
type enc struct{ b []byte }

// newEnc returns an encoder with the length prefix reserved and room for
// n payload bytes, so a message sized up front is built in, and written
// from, the one buffer.
func newEnc(n int) enc { return enc{b: make([]byte, 4, 4+n)} }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.BigEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.BigEndian.AppendUint64(e.b, v)
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec consumes fixed-width fields, latching the first error.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() bool { return d.err != nil }
func (d *dec) need(n int) bool {
	if d.fail() {
		return false
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("wire: truncated frame (need %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return false
	}
	return true
}
func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *dec) str() string {
	n := int(d.u32())
	if d.fail() || !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// writeFrame writes the frame e holds — newEnc's reserved prefix, set
// here to the payload length, and the payload. The caller serializes
// concurrent writers; the frame itself is a single Write so a
// conforming io.Writer cannot interleave it.
func writeFrame(w io.Writer, e enc) error {
	payload := len(e.b) - 4
	if payload > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", payload)
	}
	binary.BigEndian.PutUint32(e.b, uint32(payload))
	_, err := w.Write(e.b)
	return err
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// header checks a payload's kind and version bytes.
func header(d *dec, kind byte) {
	if k := d.u8(); !d.fail() && k != kind {
		d.err = fmt.Errorf("wire: unexpected message kind 0x%02x (want 0x%02x)", k, kind)
	}
	if v := d.u8(); !d.fail() && v != version {
		d.err = fmt.Errorf("wire: unsupported protocol version %d (want %d)", v, version)
	}
}

// Payload bytes of a request and of a response outside their strings:
// kind, version, the fixed-width fields and each string's length word.
const (
	requestFixed  = 1 + 1 + 8 + 1 + 8 + 4 + 8 + 4 + 4
	responseFixed = 1 + 1 + 8 + 1 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + 4
)

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req Request) error {
	e := newEnc(requestFixed + len(req.Query) + len(req.DCs))
	e.u8(kindRequest)
	e.u8(version)
	e.u64(req.ID)
	e.u8(byte(req.Priority))
	e.u64(uint64(req.Deadline))
	e.u32(req.Tuples)
	e.u64(uint64(req.Seed))
	e.str(req.Query)
	e.str(req.DCs)
	return writeFrame(w, e)
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(r io.Reader) (Request, error) {
	payload, err := readFrame(r)
	if err != nil {
		return Request{}, err
	}
	d := &dec{b: payload}
	header(d, kindRequest)
	req := Request{
		ID:       d.u64(),
		Priority: int8(d.u8()),
		Deadline: time.Duration(d.u64()),
		Tuples:   d.u32(),
		Seed:     int64(d.u64()),
		Query:    d.str(),
		DCs:      d.str(),
	}
	return req, d.err
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, resp Response) error {
	e := newEnc(responseFixed + len(resp.Tier) + len(resp.Fingerprint) + len(resp.Err))
	e.u8(kindResponse)
	e.u8(version)
	e.u64(resp.ID)
	e.u8(byte(resp.Status))
	flags := byte(0)
	if resp.CacheHit {
		flags |= 1
	}
	e.u8(flags)
	e.str(resp.Tier)
	e.u32(resp.Rows)
	e.str(resp.Fingerprint)
	e.u64(uint64(resp.CompileTime))
	e.u64(uint64(resp.EvalTime))
	e.u64(uint64(resp.RetryAfter))
	e.str(resp.Err)
	return writeFrame(w, e)
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r io.Reader) (Response, error) {
	payload, err := readFrame(r)
	if err != nil {
		return Response{}, err
	}
	d := &dec{b: payload}
	header(d, kindResponse)
	resp := Response{
		ID:     d.u64(),
		Status: Status(d.u8()),
	}
	flags := d.u8()
	resp.CacheHit = flags&1 != 0
	resp.Tier = d.str()
	resp.Rows = d.u32()
	resp.Fingerprint = d.str()
	resp.CompileTime = time.Duration(d.u64())
	resp.EvalTime = time.Duration(d.u64())
	resp.RetryAfter = time.Duration(d.u64())
	resp.Err = d.str()
	return resp, d.err
}
