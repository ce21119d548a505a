package engine

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/guard"
	"circuitql/internal/qos"
	"circuitql/internal/query"
)

// Engine is the serving engine: N independent shards behind a
// fingerprint router. Create with New, stop with Close.
//
// Every request canonicalizes to a fingerprint that maps — by a pure
// function of its bytes, stable across restarts — onto exactly one
// shard, which owns the plan cache, singleflight map, admission lanes,
// and vm batcher for that slice of the fingerprint space. Shard
// ownership invariants:
//
//   - a fingerprint's plan is cached on exactly one shard, so
//     exactly-once compile (singleflight) holds engine-wide even though
//     each shard runs its own flight group;
//   - cache locks, LRU eviction, and batch-coalescing windows never
//     cross shards — same-fingerprint requests always meet in the same
//     batcher;
//   - Metrics and QoS aggregate across shards for exposition, while
//     ShardMetrics/ShardQoS expose the per-shard ledgers they sum.
type Engine struct {
	cfg    Config
	shards []*shard
	// rr spreads requests that failed canonicalization (they have no
	// fingerprint and fail fast in a worker) round-robin across shards.
	rr atomic.Uint64
}

// ShardIndex maps a fingerprint onto one of n shards. It is a pure
// function of the fingerprint bytes — no process state — so for a fixed
// shard count the assignment is stable across engines, processes, and
// restarts, and a plan warmed before a restart lands on the same shard
// after it.
func ShardIndex(fp query.Fingerprint, n int) int {
	if n <= 1 {
		return 0
	}
	return int(binary.BigEndian.Uint64(fp[:8]) % uint64(n))
}

// spread divides an engine-wide total across n shards: shard i gets the
// floor share plus one of the remainder, never less than 1.
func spread(total, n, i int) int {
	v := total / n
	if i < total%n {
		v++
	}
	if v < 1 {
		v = 1
	}
	return v
}

// shardSlice derives shard i's configuration from the already-defaulted
// engine-wide configuration: worker counts and queue depths spread
// their totals, the cache budget divides evenly, and everything else is
// inherited.
func (c Config) shardSlice(i, n int) Config {
	if n <= 1 {
		return c
	}
	sc := c
	sc.Shards = 1
	sc.Workers = spread(c.Workers, n, i)
	sc.QueueDepth = spread(c.QueueDepth, n, i)
	sc.MissWorkers = spread(c.MissWorkers, n, i)
	sc.MissQueueDepth = spread(c.MissQueueDepth, n, i)
	if c.MaxCacheGates > 0 {
		sc.MaxCacheGates = c.MaxCacheGates / int64(n)
		if sc.MaxCacheGates < 1 {
			sc.MaxCacheGates = 1
		}
	}
	return sc
}

// New starts an engine with the given configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(cfg.shardSlice(i, cfg.Shards))
	}
	if cfg.Store != nil && cfg.WarmStart {
		e.warmLoad()
	}
	return e
}

// warmLoad promotes every readable plan in the persistent store into
// its owning shard's cache, so the first request for a known shape is a
// cache hit — no compile, no disk read. Stored plans are visited in
// deterministic fingerprint order; unreadable artifacts are skipped
// (the store quarantines them) and plans beyond a shard's cache budget
// are evicted normally, staying available on disk. Returns how many
// plans were loaded.
func (e *Engine) warmLoad() int {
	st := e.cfg.Store
	loaded := 0
	for _, fp := range st.Plans() {
		a, err := st.GetPlan(fp)
		if err != nil {
			continue
		}
		ent, err := entryFromArtifact(a, nil)
		if err != nil {
			continue
		}
		s := e.shardOf(fp)
		s.mu.Lock()
		victims := s.cache.add(ent)
		s.evictions.Add(int64(len(victims)))
		s.mu.Unlock()
		loaded++
	}
	return loaded
}

// ShardCount reports how many shards the engine runs.
func (e *Engine) ShardCount() int { return len(e.shards) }

// shardOf returns the shard owning a fingerprint.
func (e *Engine) shardOf(fp query.Fingerprint) *shard {
	return e.shards[ShardIndex(fp, len(e.shards))]
}

// shardFor routes a job: by fingerprint when canonicalization
// succeeded, round-robin otherwise (the request fails fast in a worker
// and must not pile onto one shard).
func (e *Engine) shardFor(j *job) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	if j.prep.err != nil {
		return e.shards[e.rr.Add(1)%uint64(len(e.shards))]
	}
	return e.shardOf(j.prep.canon.FP)
}

// Submit classifies a request into its shard's admission lane and
// enqueues it, returning a channel that will receive exactly one
// Result. A request made by Prepare and still holding the Query and DCs
// it was prepared from is admitted on its memo; any other is
// canonicalized here. Under ShedBlock (the default) submission blocks
// while the lane is full; under ShedOnFull / ShedAdaptive a full lane
// rejects immediately with a typed *guard.OverloadError carrying a
// retry-after hint. A canceled context or a closed engine resolves the
// result immediately with an error.
func (e *Engine) Submit(ctx context.Context, req Request) <-chan Result {
	out := make(chan Result, 1)
	j := &job{ctx: ctx, req: req, out: out, prep: req.prep}
	if !j.prep.of(req) {
		// A plain request, or one whose Query or DCs was replaced after
		// Prepare: derive everything from the pair it holds now.
		start := time.Now()
		j.prep = prepare(req)
		j.canonDur = time.Since(start)
	}
	e.shardFor(j).enqueue(j)
	return out
}

// Serve runs one request to completion on its shard's worker pool.
func (e *Engine) Serve(ctx context.Context, req Request) Result {
	select {
	case res := <-e.Submit(ctx, req):
		return res
	case <-ctxDone(ctx):
		// The job may still run (it polls ctx itself and fails fast);
		// the caller gets the cancellation immediately.
		return Result{Err: guard.Poll(ctx)}
	}
}

// ServeBatch fans a batch of independent requests across the shards and
// waits for all of them; results are positional.
func (e *Engine) ServeBatch(ctx context.Context, reqs []Request) []Result {
	chans := make([]<-chan Result, len(reqs))
	for i, r := range reqs {
		chans[i] = e.Submit(ctx, r)
	}
	out := make([]Result, len(reqs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

// Close stops accepting requests, drains queued ones, waits for every
// shard's workers, then cancels and waits for any detached compiles
// nobody is left to consume. Shards close concurrently. Safe to call
// more than once, including concurrently with itself and with
// Serve/Submit.
func (e *Engine) Close() error {
	var wg sync.WaitGroup
	for _, s := range e.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.close() //nolint:errcheck // always nil
		}(s)
	}
	wg.Wait()
	return nil
}

// Shutdown is Close bounded by ctx: when ctx expires each shard's
// compile context is canceled, so queued requests drain promptly with
// typed errors instead of waiting out arbitrarily long compiles.
// Callers still own their request contexts; Shutdown only bounds
// engine-owned work.
func (e *Engine) Shutdown(ctx context.Context) error {
	var wg sync.WaitGroup
	for _, s := range e.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.shutdown(ctx) //nolint:errcheck // always nil
		}(s)
	}
	wg.Wait()
	return nil
}

// merge folds another snapshot's counts into h.
func (h LatencyHistogram) merge(o LatencyHistogram) LatencyHistogram {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Count += o.Count
	h.SumMicros += o.SumMicros
	return h
}

// add folds another shard's counters into m.
func (m Metrics) add(o Metrics) Metrics {
	m.Hits += o.Hits
	m.Misses += o.Misses
	m.Evictions += o.Evictions
	m.Compiles += o.Compiles
	m.CompileErrors += o.CompileErrors
	m.Requests += o.Requests
	m.InFlight += o.InFlight
	m.Failed += o.Failed
	m.ServedVM += o.ServedVM
	m.ServedRAM += o.ServedRAM
	m.CachedPlans += o.CachedPlans
	m.CachedGates += o.CachedGates
	m.CompileLatency = m.CompileLatency.merge(o.CompileLatency)
	m.EvalLatency = m.EvalLatency.merge(o.EvalLatency)
	return m
}

// Metrics returns a snapshot of the engine's counters, aggregated
// across shards (counters and histograms sum; ShardMetrics exposes the
// addends).
func (e *Engine) Metrics() Metrics {
	m := e.shards[0].metrics()
	for _, s := range e.shards[1:] {
		m = m.add(s.metrics())
	}
	// Store counters come from the store's own engine-wide ledger, not
	// the per-shard snapshots (which leave them zero).
	if st := e.cfg.Store; st != nil {
		ss := st.Stats()
		m.StorePlans = int64(ss.Plans)
		m.StoreHits = ss.Hits
		m.StoreMisses = ss.Misses
		m.StoreWrites = ss.Writes
		m.StoreCorrupt = ss.Corrupt
		m.StoreBytesRead = ss.BytesRead
		m.StoreBytesWritten = ss.BytesWritten
	}
	return m
}

// ShardMetrics returns each shard's own snapshot, index-aligned with
// ShardIndex.
func (e *Engine) ShardMetrics() []Metrics {
	out := make([]Metrics, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.metrics()
	}
	return out
}

// QoS returns the admission/degradation snapshot aggregated across
// shards: ledger counters and lane gauges sum, the load level takes the
// worst shard (qos.Merge).
func (e *Engine) QoS() qos.Snapshot {
	if len(e.shards) == 1 {
		return e.shards[0].qosSnapshot()
	}
	snaps := make([]qos.Snapshot, len(e.shards))
	for i, s := range e.shards {
		snaps[i] = s.qosSnapshot()
	}
	return qos.Merge(snaps...)
}

// ShardQoS returns each shard's own snapshot, index-aligned with
// ShardIndex.
func (e *Engine) ShardQoS() []qos.Snapshot {
	out := make([]qos.Snapshot, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.qosSnapshot()
	}
	return out
}
