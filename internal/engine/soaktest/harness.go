// Package soaktest is a chaos soak harness for the serving engine: N
// concurrent clients replay M query shapes with zipf skew against a
// live engine while fault injection fires at every evaluation site the
// engine has (word gates, RAM join steps), a fraction of requests carry
// tight deadlines or low priority, and a final wave races submissions
// against Close.
//
// The harness asserts the engine's overload contract from the outside:
// every rejected request carries a typed guard error, queue occupancy
// never exceeds the configured bounds, the engine drains cleanly on
// Close, and the engine's admitted/shed counters reconcile exactly with
// what the clients observed.
package soaktest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/loadgen"
)

// makeRequest builds the request of the load harness's shape src over
// n tuples per relation from seed, salted with "R <= salt" when salt > 0
// (loadgen.Shape.Request): even seeds prepared, odd ones plain.
func makeRequest(src string, seed int64, n, salt int) (engine.Request, error) {
	return loadgen.Shape{Query: src, Tuples: n, Seed: seed, Salt: salt}.Request()
}

// templates mixes compilable full queries with a non-full shape that
// pins to the RAM tier via a sticky negative cache entry, so the soak
// exercises both the circuit tiers and the negative-TTL path.
var templates = []string{
	"Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
	"Q(A,B) :- R(A,B), S(A,B)",
	"Q(A,B,C) :- R(A,B), S(B,C)",
	"Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)",
	"Q(A,C) :- R(A,B), S(B,C)", // non-full: projected path
}

// Shapes builds m requests with distinct fingerprints by cycling the
// templates over growing database sizes.
func Shapes(m int, seed int64) ([]engine.Request, error) {
	shapes := make([]engine.Request, 0, m)
	for i := 0; i < m; i++ {
		n := 6 + 2*(i/len(templates))
		req, err := makeRequest(templates[i%len(templates)], seed+int64(i), n, 0)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, req)
	}
	return shapes, nil
}

// Config sizes one soak run.
type Config struct {
	Clients   int           // concurrent client goroutines
	Shapes    int           // distinct query shapes (fingerprints)
	Duration  time.Duration // main soak phase length
	ZipfS     float64       // zipf skew (>1); the hottest shape dominates
	FaultRate float64       // per-site injected failure probability
	Deadline  time.Duration // tight deadline applied to every 9th request
	Seed      int64
	Engine    engine.Config
}

// Report aggregates client-observed outcomes. Every submission lands in
// exactly one bucket; Untyped collects errors matching no taxonomy
// sentinel — any entry is a bug.
type Report struct {
	Submitted  int64
	Served     int64
	Overloaded int64 // shed with guard.ErrOverloaded
	Deadline   int64 // context.DeadlineExceeded-classified
	Budget     int64 // other guard.ErrBudgetExceeded trips
	Canceled   int64
	Invalid    int64
	Internal   int64 // contained panics
	Injected   int64 // faultinject.ErrInjected surfaced (all tiers hit)
	Untyped    []error

	MaxQueued   map[string]int // peak observed queue occupancy per lane
	OverBounded bool           // a lane was ever observed above its capacity
}

func (r *Report) String() string {
	return fmt.Sprintf("submitted=%d served=%d overloaded=%d deadline=%d budget=%d canceled=%d invalid=%d internal=%d injected=%d untyped=%d",
		r.Submitted, r.Served, r.Overloaded, r.Deadline, r.Budget, r.Canceled, r.Invalid, r.Internal, r.Injected, len(r.Untyped))
}

// counters is the lock-free half of the report.
type counters struct {
	submitted, served, overloaded, deadline atomic.Int64
	budget, canceled, invalid, internal     atomic.Int64
	injected                                atomic.Int64
	mu                                      sync.Mutex
	untyped                                 []error
}

// record classifies one outcome into the taxonomy buckets.
func (c *counters) record(err error) {
	c.submitted.Add(1)
	switch {
	case err == nil:
		c.served.Add(1)
	case errors.Is(err, guard.ErrOverloaded):
		c.overloaded.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		c.deadline.Add(1)
	case errors.Is(err, guard.ErrBudgetExceeded):
		c.budget.Add(1)
	case errors.Is(err, guard.ErrCanceled):
		c.canceled.Add(1)
	case errors.Is(err, guard.ErrInvalidInput):
		c.invalid.Add(1)
	case errors.Is(err, guard.ErrInternal):
		c.internal.Add(1)
	case errors.Is(err, faultinject.ErrInjected):
		c.injected.Add(1)
	default:
		c.mu.Lock()
		c.untyped = append(c.untyped, err)
		c.mu.Unlock()
	}
}

// Run executes one soak: spin up the engine, drive it with faulty
// chaotic load for cfg.Duration, race a final submission wave against
// Close, and return the client-side report plus the engine's final
// metrics for reconciliation.
func Run(cfg Config) (Report, engine.Metrics, error) {
	shapes, err := Shapes(cfg.Shapes, cfg.Seed)
	if err != nil {
		return Report{}, engine.Metrics{}, err
	}
	eng := engine.New(cfg.Engine)

	in := faultinject.New()
	if cfg.FaultRate > 0 {
		in.FailRate(faultinject.SiteWordGate, uint64(cfg.Seed)+1, cfg.FaultRate)
		// One contained panic mid-run, at the site every sticky shape
		// reaches; tier recovery must convert it to ErrInternal.
		in.PanicAt(faultinject.SiteRAMJoin, 97, nil)
	}

	var cnt counters
	maxQueued := map[string]int{}
	overBounded := false

	// Sampler: watch live queue gauges for bound violations.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				for _, l := range eng.Metrics().Lanes {
					if l.Queued > maxQueued[l.Lane] {
						maxQueued[l.Lane] = l.Queued
					}
					if l.Queued > l.Depth {
						overBounded = true
					}
				}
			}
		}
	}()

	end := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for id := 0; id < cfg.Clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			zipf := rand.NewZipf(rng, maxf(cfg.ZipfS, 1.01), 1, uint64(len(shapes)-1))
			for k := 0; time.Now().Before(end); k++ {
				req := shapes[zipf.Uint64()]
				ctx := faultinject.WithInjector(context.Background(), in)
				cancel := context.CancelFunc(func() {})
				if cfg.Deadline > 0 && k%9 == 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
				}
				if k%5 == 0 {
					ctx = engine.WithPriority(ctx, engine.PriorityLow)
				}
				res := <-eng.Submit(ctx, req)
				cancel()
				cnt.record(res.Err)
			}
		}(id)
	}
	wg.Wait()

	// Drain wave: submissions racing Close must still get exactly one
	// typed answer each — served, shed, or draining.
	var drainWG sync.WaitGroup
	for id := 0; id < cfg.Clients; id++ {
		drainWG.Add(1)
		go func(id int) {
			defer drainWG.Done()
			res := <-eng.Submit(context.Background(), shapes[id%len(shapes)])
			cnt.record(res.Err)
		}(id)
	}
	closeErr := eng.Close()
	drainWG.Wait()
	close(samplerStop)
	samplerWG.Wait()

	rep := Report{
		Submitted:  cnt.submitted.Load(),
		Served:     cnt.served.Load(),
		Overloaded: cnt.overloaded.Load(),
		Deadline:   cnt.deadline.Load(),
		Budget:     cnt.budget.Load(),
		Canceled:   cnt.canceled.Load(),
		Invalid:    cnt.invalid.Load(),
		Internal:   cnt.internal.Load(),
		Injected:   cnt.injected.Load(),
		Untyped:    cnt.untyped,

		MaxQueued:   maxQueued,
		OverBounded: overBounded,
	}
	return rep, eng.Metrics(), closeErr
}

// Reconcile checks the engine's counters against the client-observed totals:
// every submission was counted once, as admitted to a lane or as shed
// (queue_full, priority, or draining). A non-nil error means the books
// don't balance.
func Reconcile(rep Report, m engine.Metrics) error {
	var shed int64
	for _, byReason := range m.Shed {
		for _, v := range byReason {
			shed += v
		}
	}
	if got := m.Requests + shed; got != rep.Submitted {
		return fmt.Errorf("ledger reconcile: admitted %d + shed %d = %d, clients submitted %d",
			m.Requests, shed, got, rep.Submitted)
	}
	sum := rep.Served + rep.Overloaded + rep.Deadline + rep.Budget +
		rep.Canceled + rep.Invalid + rep.Internal + rep.Injected + int64(len(rep.Untyped))
	if sum != rep.Submitted {
		return fmt.Errorf("client reconcile: outcome buckets sum to %d, submitted %d", sum, rep.Submitted)
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
