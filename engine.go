// Serving facade: a long-lived Engine that amortizes compilation across
// requests via a canonical plan cache and evaluates concurrently.
//
// The paper's circuits are data independent — compiled once per
// (query, DC set) and valid for every conforming database — which makes
// them cacheable plans. Engine keys the cache by the canonical
// fingerprint of the pair (variables alpha-renamed into canonical order,
// atoms and constraints sorted, then hashed), so structurally identical
// requests share one plan regardless of variable names or atom order;
// concurrent cold requests for the same fingerprint compile once
// (singleflight); eviction is cost-aware LRU charged by gate count; and
// each evaluation runs a tier ladder (vm program → RAM evaluator) under
// the caller's context and Budget.
package circuitql

import (
	"context"

	"circuitql/internal/engine"
	"circuitql/internal/qos"
	"circuitql/internal/query"
	"circuitql/internal/store"
)

// EngineConfig sizes an Engine; see the field docs in internal/engine.
// The zero value selects sensible defaults (GOMAXPROCS workers, 4M-gate
// cache). Every cached plan's circuit runs as a vm program; there is no
// evaluator to choose.
type EngineConfig = engine.Config

// EngineMetrics is a point-in-time snapshot of an Engine's counters:
// cache hits/misses/evictions, compile dedup, per-tier serve counts,
// in-flight requests, and compile/eval latency histograms.
type EngineMetrics = engine.Metrics

// ServeResult is the outcome of one Engine request: the output relation
// (columns named and ordered by the request's free variables), the plan
// fingerprint, cache-hit flag, the tier that served, per-tier attempts,
// and compile/eval timings.
type ServeResult = engine.Result

// ShedPolicy selects how an Engine behaves when its admission queues
// fill: block the caller (the default), shed immediately with a typed
// ErrOverloaded, or shed adaptively by load and priority.
type ShedPolicy = engine.ShedPolicy

// Shed policies for EngineConfig.ShedPolicy.
const (
	// ShedBlock: Submit blocks until the lane accepts the request or
	// the caller's context dies. Predictable, but a saturated engine
	// backs pressure up into every caller.
	ShedBlock = engine.ShedBlock
	// ShedOnFull: a full lane rejects immediately with ErrOverloaded
	// carrying a retry-after hint, keeping latency bounded.
	ShedOnFull = engine.ShedOnFull
	// ShedAdaptive: ShedOnFull, and while a lane is critically full
	// below-normal-priority work is shed first.
	ShedAdaptive = engine.ShedAdaptive
)

// Priority orders requests for load shedding: under ShedAdaptive and
// critical load, below-normal-priority requests are shed first. Attach
// with WithPriority.
type Priority = qos.Priority

// Priorities for WithPriority.
const (
	PriorityLow    = qos.PriorityLow
	PriorityNormal = qos.PriorityNormal
	PriorityHigh   = qos.PriorityHigh
)

// WithPriority tags ctx with a shedding priority for requests submitted
// under it.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return qos.WithPriority(ctx, p)
}

// QoSSnapshot is a point-in-time view of an Engine's overload-protection
// state: per-lane admissions and sheds, deadline failures by stage,
// deadline-forced tier skips, live queue gauges, and the current load
// level.
type QoSSnapshot = qos.Snapshot

// Fingerprint identifies a (query, DC set) pair up to variable renaming
// and atom/constraint reordering.
type Fingerprint = query.Fingerprint

// QueryFingerprint is the canonical fingerprint of a (query, DC set)
// pair: invariant under variable renaming and atom/constraint
// reordering, distinct for structurally different pairs. It is the plan
// cache's key, exported for observability and external caching layers.
func QueryFingerprint(q *Query, dcs DCSet) (Fingerprint, error) {
	return query.QueryFingerprint(q, dcs)
}

// PlanStore is a persistent plan-artifact store: compiled plans survive
// process restarts as versioned, checksummed files keyed by canonical
// fingerprint, written atomically so a crash can never corrupt a
// visible artifact. Set EngineConfig.Store to one and a restarted engine
// serves every previously-compiled shape without recompiling.
type PlanStore = store.Store

// PlanStoreStats is a snapshot of a PlanStore's counters: resident
// plans, disk hits/misses, writes, quarantined corruption, and bytes
// moved.
type PlanStoreStats = store.Stats

// OpenPlanStore opens (creating if needed) a plan store rooted at dir,
// sweeping any torn writes a previous crash left behind. The artifact
// files in dir are the index: every <fingerprint>.plan present is
// served, and nothing else is kept beside them.
func OpenPlanStore(dir string) (*PlanStore, error) { return store.Open(dir) }

// ExportColumnarDB writes every relation of db as a columnar file under
// dir: one dictionary-compressed, checksummed file per relation,
// written atomically. LoadColumnarDB reads it back.
func ExportColumnarDB(dir string, db Database) error { return store.ExportDB(dir, db) }

// LoadColumnarDB reads a columnar database directory written by
// ExportColumnarDB (or circuitc -export) into memory. Every file is
// checksummed and fully decoded, and a file whose recorded relation
// name differs from its file name is an error.
func LoadColumnarDB(dir string) (Database, error) { return store.LoadDB(dir) }

// Engine is a long-lived serving engine over the compile/evaluate
// pipeline. Create with NewEngine, stop with Close. Safe for concurrent
// use.
type Engine struct {
	inner *engine.Engine
}

// NewEngine starts a serving engine.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{inner: engine.New(cfg)}
}

// Serve evaluates one request to completion on the engine's worker
// pool: fetch or compile the plan for (q, dcs), validate db against it,
// evaluate through the tiers, and return the output named by q's free
// variables. The context's deadline, cancellation, and any Budget
// attached with WithBudget apply to both compilation and evaluation.
func (e *Engine) Serve(ctx context.Context, q *Query, dcs DCSet, db Database) ServeResult {
	return e.inner.Serve(ctx, engine.Request{Query: q, DCs: dcs, DB: db})
}

// Submit enqueues a request and returns a channel that will receive
// exactly one ServeResult, so independent requests fan out across the
// bounded worker pool.
func (e *Engine) Submit(ctx context.Context, q *Query, dcs DCSet, db Database) <-chan ServeResult {
	return e.inner.Submit(ctx, engine.Request{Query: q, DCs: dcs, DB: db})
}

// EngineRequest is one evaluation for ServeBatch: a query, the degree
// constraints the plan is compiled against, and the database.
type EngineRequest = engine.Request

// SubmitRequest is Submit with the request already assembled as an
// EngineRequest — the form network front ends (internal/wire) and load
// harnesses submit, so they can drive the engine through one interface.
func (e *Engine) SubmitRequest(ctx context.Context, req EngineRequest) <-chan ServeResult {
	return e.inner.Submit(ctx, req)
}

// ServeBatch fans a slice of independent requests across the worker
// pool and waits for all of them; results are positional. With
// EngineConfig.BatchMaxSize > 1, concurrent requests sharing a plan
// fingerprint are additionally coalesced into lock-step vm batches, so
// same-shape requests amortize gate decode across the whole batch.
func (e *Engine) ServeBatch(ctx context.Context, reqs []EngineRequest) []ServeResult {
	return e.inner.ServeBatch(ctx, reqs)
}

// Close stops accepting requests, drains queued ones, and waits for the
// workers to finish. Safe to call more than once, including
// concurrently with itself and with Serve/Submit.
func (e *Engine) Close() error { return e.inner.Close() }

// Shutdown is Close bounded by ctx: when ctx expires, engine-owned work
// (detached compiles) is canceled so queued requests drain promptly
// with typed errors instead of waiting out arbitrarily long compiles.
func (e *Engine) Shutdown(ctx context.Context) error { return e.inner.Shutdown(ctx) }

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() EngineMetrics { return e.inner.Metrics() }

// QoS returns a snapshot of the engine's overload-protection state.
func (e *Engine) QoS() QoSSnapshot { return e.inner.QoS() }
