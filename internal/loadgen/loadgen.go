// Package loadgen is a closed-loop load harness for the serving
// engine: N client goroutines replay M query shapes with zipf skew —
// the hottest shape dominates, as serving traffic does — against a
// target (an in-process engine or a wire server over TCP), measure
// per-request latency client-side, and report aggregate throughput,
// per-lane latency quantiles, and the outcome mix.
//
// Closed loop means each client waits for its response before sending
// the next request, so offered load adapts to the target's capacity
// and the harness measures sustainable throughput rather than queue
// growth.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/guard"
	"circuitql/internal/workload"
)

// Shape is one query shape a load run replays. The same fields drive
// both targets: an engine target prebuilds the request (parse,
// workload, constraint derivation happen once), a wire target sends
// them for the server to resolve — so both measure the same plans.
type Shape struct {
	// Query is the conjunctive query source.
	Query string
	// Tuples is the generated rows per relation.
	Tuples int
	// Seed seeds the workload generator.
	Seed int64
	// Salt > 0 appends a loose "R <= Salt" constraint (Salt must be
	// ≥ Tuples so the database still conforms): distinct fingerprints
	// from one template at a bounded compile price.
	Salt int
}

// DCs renders the shape's extra constraints in wire syntax ("" if none).
func (s Shape) DCs() string {
	if s.Salt <= 0 {
		return ""
	}
	return fmt.Sprintf("R <= %d", s.Salt)
}

// Request builds the shape's engine request from workload.Instance —
// the builder the wire server resolves a shape with. Shapes with an even
// seed are prepared (engine.Prepare) and odd ones plain, so a run over
// consecutive seeds drives both admission forms through the same
// faults, evictions and shutdown, reproducibly.
func (s Shape) Request() (engine.Request, error) {
	q, dcs, db, err := workload.Instance(s.Query, s.DCs(), s.Seed, s.Tuples)
	if err != nil {
		return engine.Request{}, err
	}
	req := engine.Request{Query: q, DCs: dcs, DB: db}
	if s.Seed%2 == 0 {
		req = engine.Prepare(req)
	}
	return req, nil
}

// templates are the replayed query shapes: mostly full conjunctive
// queries (vm-tier eligible, so the hot shape exercises batch
// coalescing) plus one projected shape that pins to the RAM tier.
var templates = []string{
	"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
	"Q(A,B) :- R(A,B), S(A,B)",
	"Q(A,B,C) :- R(A,B), S(B,C)",
	"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)",
	"Q(A,C) :- R(A,B), S(B,C)",
}

// Shapes builds m shapes with distinct fingerprints by cycling the
// templates over distinct salts. Shape 0 — the one zipf skew makes hot
// — is the triangle query.
func Shapes(m, tuples int, seed int64) []Shape {
	shapes := make([]Shape, m)
	for i := range shapes {
		shapes[i] = Shape{
			Query:  templates[i%len(templates)],
			Tuples: tuples,
			Seed:   seed + int64(i),
			Salt:   4 * (tuples + i), // distinct fingerprint per shape
		}
	}
	return shapes
}

// Class buckets one request outcome.
type Class string

// Outcome classes. Every request lands in exactly one.
const (
	ClassOK         Class = "ok"
	ClassOverloaded Class = "overloaded" // shed by admission control
	ClassDeadline   Class = "deadline"
	ClassCanceled   Class = "canceled"
	ClassBudget     Class = "budget"
	ClassInvalid    Class = "invalid"
	ClassInternal   Class = "internal"
	ClassTransport  Class = "transport" // connection-level failure
)

// Outcome is one request's result as the client saw it.
type Outcome struct {
	Class    Class
	CacheHit bool
}

// Target serves one shape per call. Implementations must be safe for
// concurrent use — every client goroutine shares one target.
type Target interface {
	Do(ctx context.Context, s Shape) Outcome
}

// ClassifyErr maps an engine error onto an outcome class, mirroring
// the guard taxonomy.
func ClassifyErr(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, guard.ErrOverloaded):
		return ClassOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return ClassDeadline
	case errors.Is(err, guard.ErrCanceled):
		return ClassCanceled
	case errors.Is(err, guard.ErrBudgetExceeded):
		return ClassBudget
	case errors.Is(err, guard.ErrInvalidInput):
		return ClassInvalid
	default:
		return ClassInternal
	}
}

// EngineTarget drives an in-process engine: requests are prebuilt per
// shape, so the measured path is admission → plan cache → evaluation,
// with no per-request parsing.
type EngineTarget struct {
	ev     Evaluator
	mu     sync.RWMutex
	shapes map[Shape]engine.Request
}

// Evaluator is the engine surface a load run drives; *engine.Engine
// and the circuitql facade's SubmitRequest both fit.
type Evaluator interface {
	Submit(ctx context.Context, req engine.Request) <-chan engine.Result
}

// NewEngineTarget prebuilds every shape's request against ev.
func NewEngineTarget(ev Evaluator, shapes []Shape) (*EngineTarget, error) {
	t := &EngineTarget{ev: ev, shapes: make(map[Shape]engine.Request, len(shapes))}
	for _, s := range shapes {
		req, err := s.Request()
		if err != nil {
			return nil, fmt.Errorf("loadgen: shape %q: %w", s.Query, err)
		}
		t.shapes[s] = req
	}
	return t, nil
}

// Do submits one prebuilt request.
func (t *EngineTarget) Do(ctx context.Context, s Shape) Outcome {
	t.mu.RLock()
	req, ok := t.shapes[s]
	t.mu.RUnlock()
	if !ok {
		// A shape not prebuilt (caller drove an ad-hoc one): build and
		// memoize it.
		built, err := s.Request()
		if err != nil {
			return Outcome{Class: ClassInvalid}
		}
		t.mu.Lock()
		t.shapes[s] = built
		t.mu.Unlock()
		req = built
	}
	res := <-t.ev.Submit(ctx, req)
	return Outcome{Class: ClassifyErr(res.Err), CacheHit: res.CacheHit}
}

// Config sizes one load run.
type Config struct {
	// Clients is the number of concurrent closed-loop client
	// goroutines. Defaults to 8.
	Clients int
	// Shapes is how many distinct query shapes (fingerprints) the run
	// replays. Defaults to 16.
	Shapes int
	// Tuples is the generated rows per relation. Defaults to 8.
	Tuples int
	// ZipfS is the zipf skew exponent (>1; larger is hotter). Defaults
	// to 1.4.
	ZipfS float64
	// Duration is how long clients keep submitting. Defaults to 1s.
	Duration time.Duration
	// Deadline, when >0, is attached to every DeadlineEvery-th request.
	Deadline      time.Duration
	DeadlineEvery int // defaults to 9 when Deadline > 0
	// Seed makes shape selection reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Shapes <= 0 {
		c.Shapes = 16
	}
	if c.Tuples <= 0 {
		c.Tuples = 8
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.4
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Deadline > 0 && c.DeadlineEvery <= 0 {
		c.DeadlineEvery = 9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// hist is a power-of-two latency histogram: bucket i counts requests
// with latency in [2^i, 2^{i+1}) microseconds. Lock-free on the record
// path so client goroutines never serialize on measurement.
type hist struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
}

func (h *hist) record(d time.Duration) {
	us := d.Microseconds()
	b := 0
	if us > 0 {
		b = bits.Len64(uint64(us)) - 1
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
}

// quantile returns an upper-bound estimate of the q-quantile (the top
// of the bucket where the cumulative count crosses q).
func (h *hist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			return time.Duration(int64(1)<<uint(i+1)) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<31) * time.Microsecond
}

// LaneStats summarizes one lane's served-request latency.
type LaneStats struct {
	Lane          string // "hit" or "miss"
	Count         int64
	P50, P95, P99 time.Duration
}

// Report aggregates one load run.
type Report struct {
	// Elapsed is the measured wall clock of the submission phase.
	Elapsed time.Duration
	// Submitted counts every request; Counts buckets them by outcome.
	Submitted int64
	Counts    map[Class]int64
	// Throughput is served (ClassOK) requests per second.
	Throughput float64
	// ShedRate is the overloaded fraction of all submissions.
	ShedRate float64
	// Lanes holds per-lane latency quantiles for served requests: the
	// hit lane (plan came from cache) and the miss lane (compile in the
	// serving path). Quantiles are power-of-two upper bounds.
	Lanes []LaneStats
}

// String renders the report for logs and the circuitload CLI.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%v submitted=%d throughput=%.0f req/s shed=%.2f%%\n",
		r.Elapsed.Round(time.Millisecond), r.Submitted, r.Throughput, 100*r.ShedRate)
	classes := make([]string, 0, len(r.Counts))
	for c := range r.Counts {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for i, c := range classes {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", c, r.Counts[Class(c)])
	}
	b.WriteString("\n")
	for _, l := range r.Lanes {
		fmt.Fprintf(&b, "lane=%-4s n=%-8d p50<%-9v p95<%-9v p99<%v\n",
			l.Lane, l.Count, l.P50, l.P95, l.P99)
	}
	return b.String()
}

// Run drives target with cfg.Clients closed-loop clients for
// cfg.Duration and aggregates what they observed. The run is
// client-paced: every goroutine independently zipf-picks a shape,
// submits, waits, records, repeats.
func Run(cfg Config, target Target) Report {
	cfg = cfg.withDefaults()
	shapes := Shapes(cfg.Shapes, cfg.Tuples, cfg.Seed)

	var (
		submitted atomic.Int64
		countsMu  sync.Mutex
		counts    = map[Class]int64{}
		hitHist   hist
		missHist  hist
	)

	start := time.Now()
	end := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for id := 0; id < cfg.Clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(shapes)-1))
			local := map[Class]int64{}
			for k := 0; time.Now().Before(end); k++ {
				shape := shapes[zipf.Uint64()]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if cfg.Deadline > 0 && k%cfg.DeadlineEvery == 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
				}
				t0 := time.Now()
				out := target.Do(ctx, shape)
				lat := time.Since(t0)
				cancel()
				submitted.Add(1)
				local[out.Class]++
				if out.Class == ClassOK {
					if out.CacheHit {
						hitHist.record(lat)
					} else {
						missHist.record(lat)
					}
				}
			}
			countsMu.Lock()
			for c, v := range local {
				counts[c] += v
			}
			countsMu.Unlock()
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Elapsed:   elapsed,
		Submitted: submitted.Load(),
		Counts:    counts,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(counts[ClassOK]) / secs
	}
	if rep.Submitted > 0 {
		rep.ShedRate = float64(counts[ClassOverloaded]) / float64(rep.Submitted)
	}
	for _, l := range []struct {
		name string
		h    *hist
	}{{"hit", &hitHist}, {"miss", &missHist}} {
		if n := l.h.count.Load(); n > 0 {
			rep.Lanes = append(rep.Lanes, LaneStats{
				Lane:  l.name,
				Count: n,
				P50:   l.h.quantile(0.50),
				P95:   l.h.quantile(0.95),
				P99:   l.h.quantile(0.99),
			})
		}
	}
	return rep
}
