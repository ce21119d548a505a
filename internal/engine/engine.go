// Package engine is the serving layer over the compile/evaluate
// pipeline: a long-lived process that amortizes compilation across
// requests and evaluates them concurrently.
//
// The paper's central object — a data-independent circuit compiled once
// per (query, DC set) and reusable for every conforming database — is a
// query plan in the factorised/compilation sense, so the engine treats
// it like one:
//
//   - plans are cached under the canonical fingerprint of the pair
//     (query.Canonicalize), so structurally identical requests share one
//     plan regardless of variable names or atom/constraint order;
//   - concurrent first requests for the same fingerprint are
//     deduplicated: one compiles, the rest wait (singleflight);
//   - the cache is a cost-aware LRU charged by gate count, so a handful
//     of enormous circuits cannot squeeze out every small plan;
//   - each request evaluates under the caller's context and
//     guard.Budget, through a tier ladder (vm → RAM): the plan's word
//     circuit runs as an internal/vm program — a single request is a
//     batch of one — and a fault there degrades to the RAM evaluator.
//     The ladder is a function of the entry alone, so a plan compiled
//     here and the same plan loaded from the store are served alike;
//   - independent requests fan out across a bounded worker pool.
//
// The cache, singleflight map, lanes and batcher are one each, not split
// N ways by fingerprint: at equal total workers that never raised
// throughput, and it left a hot fingerprint 1/N of the workers (ROADMAP,
// "Measured and rejected").
//
// Everything admission derives before it touches the engine's state — the
// canonical form, its fingerprint (the cache key) and the output rename
// plan — is a function of (Query, DCs) alone, as the
// circuit is. Prepare computes it once and returns the request carrying
// it; Submit uses that memo when the request still holds the very Query
// and DCs it was made from, and canonicalizes as it always did
// otherwise. Either way the job carries one *prepared, so nothing after
// admission knows which it was. The database check (ValidateDB) is not
// a function of the pair and runs on every request.
//
// A request takes one of two paths, both readable top to bottom in this
// file. Admission (enqueue) looks the plan up once, under the engine
// lock it already takes to read closed, and the job carries what it
// found:
//
//   - hit path (process → answer): the job holds its plan for its
//     lifetime — an entry evicted or expired while the job was queued is
//     as valid as the day it was compiled — so a worker goes straight to
//     ValidateDB → tier ladder (vm: program → pack → batcher/EvalBatch →
//     decode) → rename, and never touches the cache again;
//   - miss path (process → acquire → answer): cache re-check →
//     singleflight join → store load → compile → insert → persist, then
//     the same hit path.
//
// Overload protection (admission.go, deadline.go):
//
//   - admission is cost-classed into two lanes — requests that hold a
//     cached plan vs. requests that need a compile — each with its own
//     queue depth and concurrency cap, so a burst of expensive compile
//     misses cannot starve cached hits;
//   - under ShedOnFull / ShedAdaptive a full lane rejects immediately
//     with a typed *guard.OverloadError carrying a retry-after hint
//     (ShedBlock keeps the legacy blocking submit);
//   - request deadlines propagate as per-tier shares (PlanTier), and
//     nothing skips a tier in advance; compile flights detach onto an
//     engine-scoped context, so an impatient caller's deadline never
//     kills work others wait on, and every cached plan — compiled here
//     or loaded from the store — holds its vm program from insert, so
//     a vm attempt only evaluates;
//   - under ShedAdaptive, below-normal-priority requests are shed
//     first once a lane is critically full (Engine.critical); load never
//     changes what a compile builds, so a fingerprint has one plan;
//   - sticky negative plan-cache entries expire after NegativeTTL so a
//     misclassified shape heals instead of being pinned to the RAM tier
//     forever.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/core"
	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/store"
	"circuitql/internal/vm"
)

// Evaluation tier names, in degradation order. TierVM is the plan's
// oblivious word circuit, compiled once into an internal/vm program and
// evaluated in batches; it is the engine's only circuit evaluator.
const (
	TierVM  = "vm"
	TierRAM = "ram"
)

// tierID indexes the tier table and the engine's per-tier state.
type tierID int

const (
	tierVM tierID = iota
	tierRAM
	numTiers
)

// tiers is the one table of what the engine knows per tier: its public
// name and the deadline-accounting stage a request is in while the tier
// runs. The per-tier counters on Engine are indexed the same way.
var tiers = [numTiers]struct {
	name  string
	stage deadlineStage
}{
	tierVM:  {TierVM, stageOblivious},
	tierRAM: {TierRAM, stageRAM},
}

// The two ladders (entry.ladder): a positive entry — compiled here or
// loaded from the store, the engine does not tell them apart — walks
// vm → RAM; a negative one (sticky compile failure) is pinned to RAM.
var (
	ladderPlan = []tierID{tierVM, tierRAM}
	ladderRAM  = []tierID{tierRAM}
)

// ShedPolicy decides what happens when an admission lane's queue is
// full.
type ShedPolicy int

const (
	// ShedBlock (the default) preserves the legacy behavior: Submit
	// blocks until the lane has room or the caller's context dies.
	ShedBlock ShedPolicy = iota
	// ShedOnFull rejects immediately with a typed *guard.OverloadError
	// (matching guard.ErrOverloaded) carrying a retry-after hint.
	ShedOnFull
	// ShedAdaptive is ShedOnFull plus priority shedding: while a lane's
	// queue is at least three-quarters full, below-normal-priority
	// requests are shed at admission before the lane overflows.
	ShedAdaptive
)

// String names the policy (flag value syntax).
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedOnFull:
		return "shed"
	case ShedAdaptive:
		return "adaptive"
	}
	return "unknown"
}

// Config sizes the engine. The zero value selects sensible defaults.
type Config struct {
	// MaxCacheGates caps the summed gate count (relational + oblivious)
	// of cached plans; the least recently used plans are evicted beyond
	// it. 0 selects 1<<22 gates; negative means unlimited.
	MaxCacheGates int64
	// Workers is the concurrency cap of the cached-hit lane. 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth is the hit lane's queue length beyond the workers.
	// 0 selects 2×Workers.
	QueueDepth int
	// MissWorkers is the concurrency cap of the compile-miss lane.
	// 0 selects max(1, Workers/2).
	MissWorkers int
	// MissQueueDepth is the miss lane's queue length. 0 selects
	// 2×MissWorkers.
	MissQueueDepth int
	// ShedPolicy decides whether a full lane blocks the submitter
	// (ShedBlock, the default) or rejects with guard.ErrOverloaded.
	ShedPolicy ShedPolicy
	// NegativeTTL is how long a sticky negative plan-cache entry (a
	// compile failure pinned to the RAM tier) stays before the shape is
	// retried. 0 selects 30s; negative means never expire.
	NegativeTTL time.Duration
	// Tracer, when set, records a span tree per request (serve →
	// compile stages → tier attempts) into its ring buffer and
	// per-stage aggregates. nil disables tracing; the hot paths then
	// pay a single branch per stage.
	Tracer *obs.Tracer
	// BatchMaxSize caps how many same-fingerprint requests one vm
	// dispatch evaluates in lock-step. ≤ 1 disables coalescing (each
	// request runs its own batch of one); 0 selects 1 — coalescing is
	// opt-in because it trades up to BatchWindow of latency for
	// amortized throughput.
	BatchMaxSize int
	// BatchWindow is how long the first request of a batch waits for
	// companions before dispatching alone. 0 selects 250µs when
	// BatchMaxSize enables coalescing.
	BatchWindow time.Duration
	// Store, when set, is the persistent plan store (internal/store):
	// compile misses check it before compiling — a disk hit promotes
	// the stored plan into the cache without running the compiler —
	// fresh compiles persist their plan, and LRU-evicted compiled plans
	// write back. New loads every stored plan into the plan cache, so a
	// restarted engine serves every previously compiled shape without a
	// single compile; plans beyond the cache budget are evicted normally
	// (they stay on disk).
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.MaxCacheGates == 0 {
		c.MaxCacheGates = 1 << 22
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MissWorkers <= 0 {
		c.MissWorkers = c.Workers / 2
		if c.MissWorkers < 1 {
			c.MissWorkers = 1
		}
	}
	if c.MissQueueDepth <= 0 {
		c.MissQueueDepth = 2 * c.MissWorkers
	}
	if c.NegativeTTL == 0 {
		c.NegativeTTL = 30 * time.Second
	}
	if c.BatchMaxSize > 1 && c.BatchWindow == 0 {
		c.BatchWindow = 250 * time.Microsecond
	}
	return c
}

// Request is one evaluation: a query, the degree constraints the plan
// is compiled against, and the database to evaluate on.
type Request struct {
	Query *query.Query
	DCs   query.DCSet
	DB    query.Database

	// prep is Prepare's memo of what (Query, DCs) determine; nil on a
	// plain request. Unexported, so a caller cannot pair a request with
	// another query's canonical form.
	prep *prepared
}

// prepared is everything the engine derives from a request's (Query,
// DCs) pair alone — the paper's circuit is a function of that pair, and
// so is all of admission up to the database check. It is shared by
// every request carrying it and never written after prepare returns.
type prepared struct {
	// The pair this was derived from. Submit trusts the memo only for a
	// request still holding these very values (of).
	query *query.Query
	dcs   query.DCSet

	// canon is the canonical form — its FP is the plan-cache key — or nil
	// with err the typed canonicalization failure.
	canon *query.Canonical
	err   error

	// The output rename plan: canonical column → request variable name,
	// and the request's free variables in projection order.
	rename map[string]string
	names  []string
}

// Prepare returns req carrying everything the engine derives from
// (Query, DCs) alone: the canonical form and fingerprint (or the typed
// error canonicalization fails with) and the output rename plan. Submit
// then skips that work for every request made from the returned value —
// with any DB — as long as Query and DCs are left as they are; a request
// whose Query or DCs was replaced afterwards is served as a plain one.
// The query and constraints must not be mutated after Prepare.
func Prepare(req Request) Request {
	req.prep = prepare(req)
	return req
}

// prepare canonicalizes the pair and builds the rename plan.
func prepare(req Request) *prepared {
	p := &prepared{query: req.Query, dcs: req.DCs}
	if p.canon, p.err = canonicalize(req); p.err != nil {
		return p
	}
	// The circuit computes the canonical query, whose free variables are
	// x<i>; VarMap says which request variable each one is.
	q := req.Query
	p.rename = make(map[string]string, q.Free.Len())
	p.names = make([]string, 0, q.Free.Len())
	for _, v := range q.Free.Vars() {
		p.rename[p.canon.Query.VarNames[p.canon.VarMap[v]]] = q.VarNames[v]
		p.names = append(p.names, q.VarNames[v])
	}
	return p
}

// canonicalize contains query.Canonicalize: a nil Query panics inside
// it, and the panic surfaces as the request's typed error.
func canonicalize(req Request) (c *query.Canonical, err error) {
	defer guard.Recover(&err)
	c, err = query.Canonicalize(req.Query, req.DCs)
	if err != nil {
		err = guard.Invalidf("engine: %v", err)
	}
	return c, err
}

// of reports whether p was derived from req's own Query and DCs: the
// same query pointer and the same constraint slice (length and backing
// array), not merely equal ones.
func (p *prepared) of(req Request) bool {
	return p != nil && p.query == req.Query && len(p.dcs) == len(req.DCs) &&
		(len(p.dcs) == 0 || &p.dcs[0] == &req.DCs[0])
}

// TierAttempt records one tier's outcome (nil error for the tier that
// served).
type TierAttempt struct {
	Tier string
	Err  error
}

// Result is the outcome of one request.
type Result struct {
	Output *relation.Relation
	Err    error

	Fingerprint query.Fingerprint
	CacheHit    bool   // plan came from the cache (no compile waited on)
	Tier        string // tier that served the output
	Attempts    []TierAttempt
	CompileTime time.Duration // time spent waiting for the plan (0 on hit)
	EvalTime    time.Duration
}

// Engine is the serving engine: one plan cache, singleflight map, pair
// of admission lanes, worker pool and batcher. Create with New, stop with
// Close.
type Engine struct {
	cfg Config

	mu      sync.Mutex // guards cache, flights, closed
	cache   *planCache
	flights *flightGroup
	closed  bool

	jobsHit  chan *job
	jobsMiss chan *job
	submitM  sync.RWMutex // held (R) while sending on a lane; (W) by Close
	wg       sync.WaitGroup

	// lifeCtx scopes detached work (compile flights) to the engine's
	// lifetime, so a caller abandoning it does not kill what others wait
	// on; Close (after draining) and Shutdown cancel it.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	compileWG  sync.WaitGroup
	closeOnce  sync.Once

	// batches coalesces same-fingerprint vm evaluations; nil unless
	// Config.BatchMaxSize enables coalescing.
	batches *batcher

	// admission and deadline state (admission.go, deadline.go)
	estServe     [numLanes]estimator // whole-request service time per lane
	laneInFlight [numLanes]atomic.Int64

	// counters (metrics.go holds the snapshot type); a request is counted
	// once at admission, as admitted or as shed
	admitted                    [numLanes]atomic.Int64
	shed                        [numLanes][numShedReasons]atomic.Int64
	deadlines                   [numDeadlineStages]atomic.Int64
	hits, misses, evictions     atomic.Int64
	compiles, compileErrs       atomic.Int64
	inFlight, failed            atomic.Int64
	attempts, served, fallbacks [numTiers]atomic.Int64
	compileLat, evalLat         latencyHist
}

// job is one submitted request on its way through a lane. ent is the
// plan admission found in the cache (nil on the miss lane): the job
// owns it from then on, whatever the cache does in the meantime.
type job struct {
	ctx      context.Context
	req      Request
	prep     *prepared // the request's own memo, or what Submit derived
	ent      *entry
	lane     lane
	enqueued time.Time     // set only when the engine traces; starts the admission span
	canonDur time.Duration // what Submit spent canonicalizing; 0 when the memo served
	out      chan Result
}

// New starts an engine with the given configuration. With a Store, every
// stored plan is in the cache before New returns.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	negTTL := cfg.NegativeTTL
	if negTTL < 0 {
		negTTL = 0 // never expire
	}
	e := &Engine{
		cfg:      cfg,
		cache:    newPlanCache(cfg.MaxCacheGates, negTTL),
		flights:  newFlightGroup(),
		jobsHit:  make(chan *job, cfg.QueueDepth),
		jobsMiss: make(chan *job, cfg.MissQueueDepth),
	}
	e.lifeCtx, e.lifeCancel = context.WithCancel(context.Background())
	if cfg.BatchMaxSize > 1 {
		e.batches = newBatcher(cfg.BatchMaxSize, cfg.BatchWindow, e.lifeCtx)
	}
	if cfg.Store != nil {
		e.warmLoad()
	}
	e.wg.Add(cfg.Workers + cfg.MissWorkers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker(e.jobsHit, laneHit)
	}
	for i := 0; i < cfg.MissWorkers; i++ {
		go e.worker(e.jobsMiss, laneMiss)
	}
	return e
}

// warmLoad promotes every readable plan in the persistent store into the
// cache, so the first request for a known shape is a cache hit — no
// compile, no disk read. Stored plans are visited in deterministic
// fingerprint order; unreadable artifacts are skipped (the store
// quarantines them) and plans beyond the cache budget are evicted
// normally, staying available on disk.
func (e *Engine) warmLoad() {
	st := e.cfg.Store
	for _, fp := range st.Plans() {
		a, err := st.GetPlan(fp)
		if err != nil {
			continue
		}
		ent, err := entryFromArtifact(a, nil)
		if err != nil {
			continue
		}
		e.mu.Lock()
		victims := e.cache.add(ent)
		e.mu.Unlock()
		e.evictions.Add(int64(len(victims)))
	}
}

func (e *Engine) worker(jobs chan *job, l lane) {
	defer e.wg.Done()
	for j := range jobs {
		e.laneInFlight[l].Add(1)
		start := time.Now()
		res := e.process(j)
		e.estServe[l].observe(time.Since(start))
		e.laneInFlight[l].Add(-1)
		j.out <- res
	}
}

// --- Admission: Submit → memo check (else canonicalize) → enqueue --------

// Submit admits a request and enqueues it, returning a channel that will
// receive exactly one Result. A request made by Prepare and still
// holding the Query and DCs it was prepared from is admitted on its
// memo; any other is canonicalized here. Under ShedBlock (the default)
// submission blocks while the lane is full; under ShedOnFull /
// ShedAdaptive a full lane rejects immediately with a typed
// *guard.OverloadError carrying a retry-after hint. A canceled context or
// a closed engine resolves the result immediately with an error.
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
	e.enqueue(j)
	return out
}

// Serve runs one request to completion on the worker pool.
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

// ServeBatch fans a batch of independent requests across the worker pool
// and waits for all of them; results are positional.
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

// enqueue admits an already-canonicalized job: it looks the plan up —
// the request's only cache lookup, under the same lock acquisition that
// reads closed — picks the lane from what it found, and enqueues;
// j.out will receive exactly one Result. A job that holds a plan rides
// the hit lane and only pays evaluation; one that found none rides the
// miss lane. Requests that already failed canonicalization take the hit
// lane — they fail fast in a worker without burning a compile slot.
func (e *Engine) enqueue(j *job) {
	ctx, out := j.ctx, j.out
	e.submitM.RLock()
	defer e.submitM.RUnlock()
	if e.cfg.Tracer != nil {
		j.enqueued = time.Now()
	}
	e.mu.Lock()
	closed := e.closed
	if !closed && j.prep.err == nil {
		j.ent = e.cache.get(j.prep.canon.FP)
	}
	e.mu.Unlock()
	if closed {
		if e.cfg.ShedPolicy != ShedBlock {
			// A draining replica rejects new work as an overload ("retry
			// elsewhere"), not as an input error.
			e.reject(out, laneMiss, shedDraining, 0)
			return
		}
		out <- Result{Err: fmt.Errorf("%w: engine is closed", guard.ErrInvalidInput)}
		return
	}
	l, jobs := laneMiss, e.jobsMiss
	if j.ent != nil || j.prep.err != nil {
		l, jobs = laneHit, e.jobsHit
	}
	j.lane = l

	if e.cfg.ShedPolicy == ShedBlock {
		select {
		case jobs <- j:
			e.admitted[l].Add(1)
		case <-ctxDone(ctx):
			out <- Result{Err: guard.Poll(ctx)}
		}
		return
	}

	// Shedding policies never block the caller.
	if e.critical() && priorityOf(ctx) < PriorityNormal {
		e.reject(out, l, shedPriority, e.retryAfter(l))
		return
	}
	select {
	case jobs <- j:
		e.admitted[l].Add(1)
	default:
		e.reject(out, l, shedQueueFull, e.retryAfter(l))
	}
}

// --- A request on a worker ----------------------------------------------

// process runs one admitted request on a lane worker. A job that holds
// its plan goes straight to answer (the hit path); one that does not
// acquires a plan first (the miss path). The two defers are the whole
// epilogue: Recover turns a panic anywhere below into res.Err, then
// finish — which must see the final res.Err — does the accounting.
func (e *Engine) process(j *job) (res Result) {
	ctx := j.ctx
	if e.cfg.Tracer != nil && obs.SpanFromContext(ctx) == nil {
		ctx = obs.WithTracer(ctx, e.cfg.Tracer)
	}
	ctx, sp := obs.StartSpan(ctx, obs.StageServe)
	if sp != nil && !j.enqueued.IsZero() {
		// The traced request began when Submit did: canonicalization, if
		// Submit had to do it, is [enqueued − canonDur, enqueued], and
		// what the job then spent queued behind the lane, up to now, is
		// the admission span.
		sp.Start = j.enqueued.Add(-j.canonDur)
		if j.canonDur > 0 {
			_, can := obs.StartSpan(ctx, obs.StageCanon)
			can.Start = sp.Start
			can.EndAt(j.enqueued)
		}
		_, adm := obs.StartSpan(ctx, obs.StageAdmit)
		adm.Start = j.enqueued
		adm.End()
	}
	e.inFlight.Add(1)
	stage := stageQueued
	defer e.finish(j, sp, &stage, &res)
	defer guard.Recover(&res.Err)

	if res.Err = guard.Poll(ctx); res.Err != nil {
		return res
	}
	if res.Err = j.prep.err; res.Err != nil {
		return res
	}
	canon := j.prep.canon
	res.Fingerprint = canon.FP

	ent := j.ent
	res.CacheHit = ent != nil
	if ent == nil {
		stage = stageCompile
		start := time.Now()
		ent, res.CacheHit, res.Err = e.acquire(ctx, canon)
		if res.Err != nil {
			return res
		}
		if !res.CacheHit {
			res.CompileTime = time.Since(start)
		}
	}
	if res.CacheHit {
		e.hits.Add(1)
	}
	e.answer(ctx, ent, j, &stage, &res)
	return res
}

// finish is process's epilogue, run once res is final: in-flight and
// failure counters, the deadline counters (stage is how far the request
// got before its wall clock ran out), and the serve span's tags.
func (e *Engine) finish(j *job, sp *obs.Span, stage *deadlineStage, res *Result) {
	e.inFlight.Add(-1)
	if res.Err != nil {
		e.failed.Add(1)
	}
	if errors.Is(res.Err, context.DeadlineExceeded) {
		e.deadlines[*stage].Add(1)
	}
	if sp == nil {
		return // untraced: nothing to format
	}
	sp.SetTag("fingerprint", res.Fingerprint.Short())
	sp.SetTag("lane", j.lane.String())
	sp.SetTag("prepared", strconv.FormatBool(j.prep == j.req.prep))
	if res.CacheHit {
		sp.SetTag("cache", "hit")
	} else {
		sp.SetTag("cache", "miss")
	}
	if res.Tier != "" {
		sp.SetTag("tier", res.Tier)
	}
	sp.SetError(res.Err)
	sp.End()
}

// --- Hit path: plan in hand → validate → tier ladder → rename -----------

// answer is the hit path: with the plan in hand, validate the database
// against the request's DCs, evaluate through the entry's tier ladder,
// and rename the output back to the request's variable names. It takes
// no engine lock.
func (e *Engine) answer(ctx context.Context, ent *entry, j *job, stage *deadlineStage, res *Result) {
	req := j.req
	_, sp := obs.StartSpan(ctx, obs.StageValidate)
	res.Err = query.ValidateDB(req.Query, req.DCs, req.DB)
	sp.SetError(res.Err)
	sp.End()
	if res.Err != nil {
		return
	}
	start := time.Now()
	out, t, attempts, err := e.evaluate(ctx, ent, req, stage)
	res.EvalTime = time.Since(start)
	res.Attempts = attempts
	if err != nil {
		res.Err = err
		return
	}
	e.evalLat.observe(res.EvalTime)
	res.Tier = tiers[t].name
	if t != tierRAM {
		// The circuits computed the canonical query; RAM ran the
		// request's own.
		_, sp := obs.StartSpan(ctx, obs.StageRename)
		out = renameOutput(out, j.prep)
		sp.End()
	}
	res.Output = out
}

// ladder picks the entry's tier list and, for a RAM-pinned entry, the
// attempt that records why the circuit tier is absent.
func (ent *entry) ladder() ([]tierID, []TierAttempt) {
	if ent.compiled == nil {
		return ladderRAM, []TierAttempt{{Tier: TierVM, Err: ent.compileErr}}
	}
	return ladderPlan, nil
}

// evaluate runs the tier ladder for one request. Both tiers compute the
// same Q(D), so a fault in the oblivious tier degrades the strategy,
// never the answer. When the plan is RAM-only (sticky compile failure)
// the ladder starts at the RAM tier, with the pinned reason recorded.
//
// Deadline propagation: with a deadline on ctx, each tier attempt is
// budgeted its share of the remaining wall clock (PlanTier), so a
// stuck vm attempt cannot eat the RAM fallback's time. Every tier on
// the ladder is attempted; none is skipped on a guess.
//
// The tier counters (Metrics.Tiers) are kept here: a serve after any
// earlier entry in attempts — a failure or a RAM-pinned entry's compile
// error — is a fallback.
func (e *Engine) evaluate(ctx context.Context, ent *entry, req Request, stage *deadlineStage) (*relation.Relation, tierID, []TierAttempt, error) {
	ladder, attempts := ent.ladder()
	for i, t := range ladder {
		name := tiers[t].name
		*stage = tiers[t].stage
		tctx, cancel := PlanTier(ctx, len(ladder)-i)
		tierCtx, sp := obs.StartSpan(tctx, obs.StageTier+name)
		e.attempts[t].Add(1)
		out, err := e.runTier(tierCtx, t, ent, req)
		if err == nil && out != nil {
			sp.AddInt(obs.CounterRows, int64(out.Len()))
		}
		sp.SetError(err)
		sp.End()
		cancel()
		attempts = append(attempts, TierAttempt{Tier: name, Err: err})
		if err == nil {
			e.served[t].Add(1)
			if len(attempts) > 1 {
				e.fallbacks[t].Add(1)
			}
			return out, t, attempts, nil
		}
		if ctx != nil && ctx.Err() != nil {
			// The request's own clock ran out (a tier burning only its
			// share falls through to the next tier instead).
			return nil, 0, attempts, err
		}
	}
	last := attempts[len(attempts)-1].Err
	return nil, 0, attempts, fmt.Errorf("engine: all evaluation tiers failed: %w", last)
}

// runTier evaluates one tier, containing its panics.
func (e *Engine) runTier(ctx context.Context, t tierID, ent *entry, req Request) (out *relation.Relation, err error) {
	defer guard.Recover(&err)
	if t == tierVM {
		return e.evalVM(ctx, ent, req)
	}
	return query.EvaluateCtx(ctx, req.Query, req.DB)
}

// evalVM is the vm tier, one span per step: pack the database into the
// input words of the entry's vm.Program (compiled with the plan, or read
// with it from the store), evaluate — coalesced with concurrent
// same-fingerprint requests into one lock-step batch when batching is
// configured — and decode the output words back into a relation.
func (e *Engine) evalVM(ctx context.Context, ent *entry, req Request) (*relation.Relation, error) {
	prog := ent.compiled.Prog
	_, sp := obs.StartSpan(ctx, obs.StagePack)
	inputs, err := ent.compiled.PackOblivious(req.DB)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, err
	}

	var raw []vm.Word
	if e.batches != nil {
		raw, err = e.batches.do(ctx, prog, inputs)
	} else {
		var outs [][]vm.Word
		if outs, err = prog.EvalBatch(ctx, [][]vm.Word{inputs}); err == nil {
			raw = outs[0]
		}
	}
	if err != nil {
		return nil, err
	}

	_, sp = obs.StartSpan(ctx, obs.StageDecode)
	out, err := ent.compiled.DecodeOblivious(raw)
	sp.SetError(err)
	sp.End()
	return out, err
}

// renameOutput maps a canonical plan's output columns back to the
// request's variable names and column order, by the plan prepare built.
func renameOutput(out *relation.Relation, p *prepared) *relation.Relation {
	if out == nil || len(p.names) == 0 {
		return out
	}
	return out.Rename(p.rename).Project(p.names...)
}

// --- Miss path: cache re-check → flight → store load → compile → persist

// acquire is the miss path up to the plan: re-check the cache (the plan
// may have been compiled while the job was queued — that still counts
// as a hit), else join or start the fingerprint's compile flight and
// wait for it. The compile itself runs detached (runFlight), on an
// engine-scoped context that inherits the requester's budget, tracer,
// and fault injector but not its cancellation — so a follower whose
// leader request dies does not lose the compile, and a leader whose own
// context dies leaves the flight running for everyone else. A follower
// whose flight fails transiently (the engine shutting down aside) loops
// back to start or join a fresh flight under its own, still-live
// context. A leader's flight failure is its own (its budget tripped)
// and is returned: retrying under the same budget would fail forever.
func (e *Engine) acquire(ctx context.Context, canon *query.Canonical) (ent *entry, hit bool, err error) {
	waited := false
	for {
		if e.lifeCtx.Err() != nil {
			return nil, false, fmt.Errorf("%w: engine is shutting down", guard.ErrCanceled)
		}
		e.mu.Lock()
		if ent := e.cache.get(canon.FP); ent != nil {
			e.mu.Unlock()
			return ent, !waited, nil
		}
		if !waited {
			waited = true
			e.misses.Add(1)
		}
		fl, leader := e.flights.join(canon.FP)
		e.mu.Unlock()
		if leader {
			e.compileWG.Add(1)
			go e.runFlight(fl, canon, ctx)
		}
		select {
		case <-fl.done:
			if transientErr(fl.err) && !leader {
				if err := guard.Poll(ctx); err != nil {
					return nil, false, err
				}
				continue
			}
			return fl.ent, false, fl.err
		case <-ctxDone(ctx):
			// The flight keeps compiling for everyone else.
			return nil, false, guard.Poll(ctx)
		}
	}
}

// runFlight leads one compile flight to completion on the engine-scoped
// context: store load → compile → insert → resolve the flight →
// persist. reqCtx is only mined for values (budget, tracer, injector) —
// its cancellation does not propagate. The persistent store, when
// configured, is consulted before the compiler: a disk hit promotes the
// stored plan into the cache and the compiler never runs (Compiles does
// not move), which is what makes a restart against a warm store serve
// every known shape compile-free.
func (e *Engine) runFlight(fl *flight, canon *query.Canonical, reqCtx context.Context) {
	defer e.compileWG.Done()
	cctx := e.detach(reqCtx)
	ent := e.loadStored(cctx, canon)
	var err error
	if ent == nil {
		ent, err = e.compile(cctx, canon)
	}
	var victims []*entry
	e.mu.Lock()
	if err == nil && !ent.uncached {
		victims = e.cache.add(ent)
		e.evictions.Add(int64(len(victims)))
	}
	fl.ent, fl.err = ent, err
	e.flights.leave(canon.FP)
	e.mu.Unlock()
	close(fl.done)
	// Persistence happens after the flight resolves so followers are
	// never held behind a disk write; PutPlan is atomic, so a crash here
	// at worst loses the artifact, never corrupts the store.
	if err == nil {
		e.persist(ent)
	}
	for _, v := range victims {
		e.persist(v)
	}
}

// detach returns a context on the engine's lifetime with reqCtx's
// budget, fault injector and span (so its trace), but not its
// cancellation, for work that outlives the request that started it: a
// compile flight.
func (e *Engine) detach(reqCtx context.Context) context.Context {
	ctx := e.lifeCtx
	if b := guard.FromContext(reqCtx); b != nil {
		ctx = guard.WithBudget(ctx, b)
	}
	if in := faultinject.FromContext(reqCtx); in != nil {
		ctx = faultinject.WithInjector(ctx, in)
	}
	if sp := obs.SpanFromContext(reqCtx); sp != nil {
		ctx = obs.WithSpan(ctx, sp)
	}
	return ctx
}

// loadStored tries to serve a compile miss from the persistent store.
// nil (with no error distinction) means "not stored, or unusable" — the
// caller compiles; the store quarantines corrupt artifacts itself.
func (e *Engine) loadStored(ctx context.Context, canon *query.Canonical) *entry {
	st := e.cfg.Store
	if st == nil {
		return nil
	}
	_, sp := obs.StartSpan(ctx, obs.StageStore)
	defer sp.End()
	a, err := st.GetPlan(canon.FP)
	if err != nil {
		sp.SetError(err)
		return nil
	}
	ent, err := entryFromArtifact(a, canon)
	if err != nil {
		sp.SetError(err)
		return nil
	}
	sp.AddInt(obs.CounterGates, ent.gates)
	return ent
}

// entryFromArtifact builds a cache entry around a stored plan. canon
// may be nil (warm start has no request); the artifact's own
// re-canonicalization is used then.
func entryFromArtifact(a *store.PlanArtifact, canon *query.Canonical) (*entry, error) {
	compiled, artCanon, err := a.Compiled()
	if err != nil {
		return nil, err
	}
	if canon == nil {
		canon = artCanon
	}
	ent := &entry{
		fp:       a.FP,
		canon:    canon,
		compiled: compiled,
		gates:    a.Gates, // what the plan was charged when it was compiled
	}
	ent.stored.Store(true)
	return ent, nil
}

// persist writes a compiled plan to the persistent store, once. Only
// positive, cacheable entries are candidates (a warm-loaded entry is
// already on disk and its stored flag is set). Failures are recorded in
// the store's counters and the entry stays unpersisted — the next
// eviction retries.
func (e *Engine) persist(ent *entry) {
	st := e.cfg.Store
	if st == nil || ent == nil || ent.compiled == nil || ent.uncached || ent.stored.Load() {
		return
	}
	if err := st.PutPlan(store.FromCompiled(ent.canon, ent.compiled)); err == nil {
		ent.stored.Store(true)
	}
}

// transientErr reports whether a flight failure is tied to the leading
// request (its budget) or the engine lifetime rather than to the query
// pair.
func transientErr(err error) bool {
	return err != nil &&
		(errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrBudgetExceeded))
}

// compile builds the plan entry for a canonical pair. Structural
// failures (a non-full query, invalid input) produce a sticky RAM-only
// entry so the pair is not recompiled; cancellation and budget
// exhaustion return an error and leave nothing cached. An internal
// compiler fault may be a one-off (fault injection, transient resource
// exhaustion), so it yields an uncached RAM-only entry: this request is
// still served, and the next one retries the compile instead of being
// pinned to the slow tier forever.
func (e *Engine) compile(ctx context.Context, canon *query.Canonical) (*entry, error) {
	ent := &entry{fp: canon.FP, canon: canon}
	if !canon.Query.IsFull() {
		// Theorem 3/4 plans exist for full CQs; everything else is
		// served by the RAM tier (output-sensitive circuits are a
		// separate facade path).
		ent.compileErr = guard.Invalidf("engine: %s is not a full conjunctive query; serving from the RAM tier", canon.Query)
		ent.gates = 1
		return ent, nil
	}
	start := time.Now()
	var compiled *core.Compiled
	err := func() (err error) {
		defer guard.Recover(&err)
		compiled, err = core.CompileQueryCtx(ctx, canon.Query, canon.DCs)
		return err
	}()
	e.compiles.Add(1)
	e.compileLat.observe(time.Since(start))
	if err != nil {
		e.compileErrs.Add(1)
		switch {
		case errors.Is(err, guard.ErrCanceled), errors.Is(err, guard.ErrBudgetExceeded):
			return nil, err
		case errors.Is(err, guard.ErrInvalidInput):
			ent.compileErr = err
			ent.gates = 1
			return ent, nil
		default:
			ent.compileErr = err
			ent.gates = 1
			ent.uncached = true
			return ent, nil
		}
	}
	// The plan comes with its vm program, built beside the sweep, and is
	// charged for both at insert, as its stored copy is at load.
	ent.compiled, ent.gates = compiled, store.Charge(compiled)
	return ent, nil
}

// --- Lifecycle and snapshots --------------------------------------------

// Close stops accepting requests, drains queued ones, waits for the
// workers, then cancels and waits for any detached compiles nobody is
// left to consume. Safe to call more than once, including concurrently
// with itself and with Serve/Submit.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		// Take the write half so no Submit is mid-send, then close the
		// lanes: workers drain what was accepted and exit.
		e.submitM.Lock()
		close(e.jobsHit)
		close(e.jobsMiss)
		e.submitM.Unlock()
	})
	e.wg.Wait()
	e.lifeCancel()
	e.compileWG.Wait()
	return nil
}

// Shutdown is Close bounded by ctx: when ctx expires the engine-scoped
// compile context is canceled, so queued requests drain promptly with
// typed errors instead of waiting out arbitrarily long compiles.
// Callers still own their request contexts; Shutdown only bounds
// engine-owned work.
func (e *Engine) Shutdown(ctx context.Context) error {
	if ctx != nil {
		stop := context.AfterFunc(ctx, e.lifeCancel)
		defer stop()
	}
	return e.Close()
}

// Metrics returns a snapshot of the engine's counters, its admission
// lanes' gauges and, with a Store, the store's own ledger.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	plans, gates := e.cache.len(), e.cache.gates
	e.mu.Unlock()
	m := Metrics{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		Evictions:      e.evictions.Load(),
		Compiles:       e.compiles.Load(),
		CompileErrors:  e.compileErrs.Load(),
		InFlight:       e.inFlight.Load(),
		Failed:         e.failed.Load(),
		CachedPlans:    plans,
		CachedGates:    gates,
		Critical:       e.critical(),
		CompileLatency: e.compileLat.snapshot(),
		EvalLatency:    e.evalLat.snapshot(),
	}
	for t := range m.Tiers {
		m.Tiers[t] = TierCounts{
			Tier:      tiers[t].name,
			Attempts:  e.attempts[t].Load(),
			Served:    e.served[t].Load(),
			Fallbacks: e.fallbacks[t].Load(),
		}
	}
	for l, jobs := range [numLanes]chan *job{e.jobsHit, e.jobsMiss} {
		m.Admitted[l] = e.admitted[l].Load()
		m.Requests += m.Admitted[l]
		for r := range m.Shed[l] {
			m.Shed[l][r] = e.shed[l][r].Load()
		}
		m.Lanes[l] = LaneGauges{Lane: lane(l).String(), Queued: len(jobs), Depth: cap(jobs),
			InFlight: int(e.laneInFlight[l].Load())}
	}
	for s := range m.Deadline {
		m.Deadline[s] = e.deadlines[s].Load()
	}
	if b := e.batches; b != nil {
		m.Batches, m.BatchedRequests = b.dispatches.Load(), b.batched.Load()
		for i := range m.BatchSizes {
			m.BatchSizes[i] = b.sizes[i].Load()
		}
	}
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

// ctxDone tolerates a nil context (the facade allows it).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
