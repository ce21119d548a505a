package engine

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/core"
	"circuitql/internal/obs"
	"circuitql/internal/query"
	"circuitql/internal/vm"
)

// entry is one cached plan: the canonical form it was compiled from and
// either the compiled circuits or a sticky compile failure. Entries are
// immutable after insertion — except the lazily-compiled vm program,
// which is guarded by its own sync.Once — so evaluation never holds the
// cache lock.
type entry struct {
	fp       query.Fingerprint
	canon    *query.Canonical
	compiled *core.Compiled // nil when compileErr is set
	// compileErr routes the entry to the RAM tier. For a structural
	// failure (e.g. a non-full query, which has no Theorem-4 circuit)
	// the entry is cached sticky, so repeated requests don't recompile
	// a plan that can never exist; for an internal compiler fault
	// (possibly one-off) uncached is also set and the entry serves only
	// the requests of its own flight — the next request recompiles.
	compileErr error
	uncached   bool  // never insert into the plan cache
	gates      int64 // cost charged against Config.MaxCacheGates
	// expires, when non-zero, is when this negative entry stops being
	// served and the shape is recompiled: a sticky failure is a
	// diagnosis worth remembering, not a life sentence.
	expires time.Time
	elem    *list.Element

	// stored records that this plan is already persisted in the
	// configured plan store (warm-loaded from it, or written after its
	// compile), so eviction write-back and re-persist attempts skip it.
	// Atomic: the compile flight and an eviction can race on it, and
	// persisting twice is harmless (PutPlan is idempotent) — the flag
	// only saves the re-encode.
	stored atomic.Bool

	// vmMu/vmProg/vmErr hold the entry's lazily-compiled vectorized
	// program: the first vm-tier request pays the compile (a linear gate
	// walk, far cheaper than the plan compile), every later request —
	// and every batch — reuses it.
	vmMu   sync.Mutex
	vmProg *vm.Program
	vmErr  error
}

// vmProgram returns the entry's vectorized program, compiling it on
// first use under a vm-compile span. A structural compile failure is
// sticky for the entry's lifetime — the vm tier then fails fast and the
// ladder falls through to the next tier — but a
// failure tied to the requesting context (cancellation, budget) is not,
// so one impatient caller can't pin the fast path off.
//
// A fresh program's memory footprint (its value slots and instruction
// buffer, which dominate a resident program) is charged against the
// owner's plan-cache budget exactly once, so lazily-compiled vm
// programs are not invisible to Config.MaxCacheGates.
func (e *entry) vmProgram(ctx context.Context, owner *Engine) (*vm.Program, error) {
	e.vmMu.Lock()
	defer e.vmMu.Unlock()
	if e.vmProg != nil || e.vmErr != nil {
		return e.vmProg, e.vmErr
	}
	ctx, sp := obs.StartSpan(ctx, obs.StageVMComp)
	prog, err := vm.Compile(ctx, e.compiled.Obliv.C)
	if err == nil {
		swaps, lexes := prog.Fused()
		sp.AddInt(obs.CounterGates, int64(prog.Gates()))
		sp.AddInt(obs.CounterInstructions, int64(prog.Instructions()))
		sp.AddInt(obs.CounterLevels, int64(prog.Levels()))
		sp.AddInt(obs.CounterFusedSwap, int64(swaps))
		sp.AddInt(obs.CounterFusedLex, int64(lexes))
	}
	sp.SetError(err)
	sp.End()
	if err != nil && transientErr(err) {
		return nil, err
	}
	e.vmProg, e.vmErr = prog, err
	if err == nil && owner != nil {
		// Safe lock order: the cache mutex is only ever taken after
		// vmMu here, never the other way around.
		owner.chargeVM(e, vmCost(prog))
	}
	return e.vmProg, e.vmErr
}

// vmCost is the plan-cache charge for a resident vm program: its value
// slots plus its instruction count, the two buffers that dominate its
// footprint, in the same gate-sized units the cache already charges.
func vmCost(p *vm.Program) int64 {
	return int64(p.Slots() + p.Instructions())
}

// planCache is a cost-aware LRU: entries are charged by gate count
// (Stats() of the compiled plan), so one enormous circuit displaces many
// small ones. Negative entries (sticky compile failures) additionally
// expire after negTTL, so a shape misclassified by a transient condition
// heals. Not self-locking — the engine's mutex guards all calls.
type planCache struct {
	maxGates int64
	negTTL   time.Duration // 0: negative entries never expire
	now      func() time.Time
	entries  map[query.Fingerprint]*entry
	order    *list.List // front = most recently used
	gates    int64
}

func newPlanCache(maxGates int64, negTTL time.Duration) *planCache {
	return &planCache{
		maxGates: maxGates,
		negTTL:   negTTL,
		now:      time.Now,
		entries:  map[query.Fingerprint]*entry{},
		order:    list.New(),
	}
}

// expired reports whether a negative entry's TTL has lapsed.
func (c *planCache) expired(e *entry) bool {
	return !e.expires.IsZero() && c.now().After(e.expires)
}

// remove drops an entry from the cache.
func (c *planCache) remove(e *entry) {
	c.order.Remove(e.elem)
	delete(c.entries, e.fp)
	c.gates -= e.gates
}

// get returns the entry and marks it most recently used. An expired
// negative entry is dropped and reported as a miss, forcing a
// recompile. The engine calls it once per request, at admission (and
// once more per flight wait on the miss path); the caller then owns the
// returned entry whatever the cache does next.
func (c *planCache) get(fp query.Fingerprint) *entry {
	e, ok := c.entries[fp]
	if !ok {
		return nil
	}
	if c.expired(e) {
		c.remove(e)
		return nil
	}
	c.order.MoveToFront(e.elem)
	return e
}

// add inserts an entry and evicts least-recently-used entries until the
// cache is within its gate budget, returning the evicted
// entries (so the owner can write compiled victims back to the plan
// store after releasing its lock). The newest entry is never evicted,
// even if it alone exceeds the budget — the request that compiled it
// still gets amortization for immediate repeats, and the next insert
// will displace it normally.
func (c *planCache) add(e *entry) (evicted []*entry) {
	if old, ok := c.entries[e.fp]; ok {
		// Lost a benign race (flight cleared, recompiled): keep the old.
		c.order.MoveToFront(old.elem)
		return nil
	}
	if e.compileErr != nil && c.negTTL > 0 {
		e.expires = c.now().Add(c.negTTL)
	}
	e.elem = c.order.PushFront(e)
	c.entries[e.fp] = e
	c.gates += e.gates
	for c.order.Len() > 1 && c.maxGates > 0 && c.gates > c.maxGates {
		victim := c.order.Back().Value.(*entry)
		c.remove(victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// recharge raises an entry's charged cost by extra after its vm program
// compiled (the program's footprint was unknowable at insert time), and
// evicts least-recently-used other entries until the cache is back
// within its gate budget, returning the victims for write-back. The
// recharged entry itself is never evicted — it is in active use by the
// request that triggered the compile. A no-op when the entry has
// already been evicted or replaced.
func (c *planCache) recharge(e *entry, extra int64) (evicted []*entry) {
	cur, ok := c.entries[e.fp]
	if !ok || cur != e {
		return nil
	}
	e.gates += extra
	c.gates += extra
	for c.order.Len() > 1 && c.maxGates > 0 && c.gates > c.maxGates {
		victim := c.order.Back().Value.(*entry)
		if victim == e {
			break
		}
		c.remove(victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

func (c *planCache) len() int { return c.order.Len() }
