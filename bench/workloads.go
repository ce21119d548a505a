package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/wire"
	"circuitql/internal/workload"
)

// The query templates the workloads replay.
const (
	triangle = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
	cycle4   = "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)"
	pair     = "Q(A,B) :- R(A,B), S(A,B)"
	path2    = "Q(A,B,C) :- R(A,B), S(B,C)"
)

// shape is one request shape: what goes on the wire, the answer size it
// must produce, and the benchmark's own copy of everything the daemon
// derives from it (the daemon only ever sees the four wire fields).
type shape struct {
	Query  string
	Tuples int
	Seed   int64
	DCs    string // extra constraints in wire syntax, "" for none
	Rows   int    // reference answer size, from the RAM join

	q   *query.Query
	db  query.Database
	dcs query.DCSet        // derived from db, plus DCs: what the plan is compiled against
	ref *relation.Relation // the RAM join's answer on db

	canon    *query.Canonical
	compiled *core.Compiled // the plan the daemon will build for this shape
}

// newShape resolves a shape exactly as wire.Server.buildShape does —
// parse, generate the seeded database, derive constraints, merge the
// extras — and computes the reference answer with the RAM join.
func newShape(ctx context.Context, src string, tuples int, seed int64, extra string) (shape, error) {
	s := shape{Query: src, Tuples: tuples, Seed: seed, DCs: extra}
	var err error
	if s.q, err = query.Parse(src); err != nil {
		return s, err
	}
	s.db = workload.ForQuery(s.q, seed, tuples)
	if s.dcs, err = query.DeriveDC(s.q, s.db); err != nil {
		return s, err
	}
	if extra != "" {
		more, err := query.ParseDC(s.q, extra)
		if err != nil {
			return s, err
		}
		s.dcs = append(s.dcs, more...)
	}
	if s.ref, err = query.EvaluateCtx(ctx, s.q, s.db); err != nil {
		return s, err
	}
	s.Rows = s.ref.Len()
	return s, nil
}

// compile builds the shape's plan in-process, the way the engine does:
// canonicalize, then compile the canonical pair.
func (s *shape) compile(ctx context.Context) error {
	var err error
	if s.canon, err = query.Canonicalize(s.q, s.dcs); err != nil {
		return err
	}
	s.compiled, err = core.CompileQueryCtx(ctx, s.canon.Query, s.canon.DCs)
	return err
}

func (s shape) wordGates() int { return s.compiled.Obliv.C.Size() }

func (s shape) call() call {
	return call{
		Req:  wire.Request{Query: s.Query, Tuples: uint32(s.Tuples), Seed: s.Seed, DCs: s.DCs},
		Rows: s.Rows,
	}
}

// salted is the same request under a loose extra cardinality bound:
// same database and answer, same plan size, fresh fingerprint.
func (s shape) salted(salt int64) shape {
	s.DCs = saltDC(salt)
	return s
}

func saltDC(salt int64) string { return fmt.Sprintf("R <= %d", salt) }

// firstSalt is the first salt of a fresh-fingerprint workload; every
// relation has fewer tuples, so the generated database still conforms.
const firstSalt = 32

// maxSkip bounds how many candidate seeds shape generation may reject
// before it gives up rather than loop.
const maxSkip = 400

// seedBase spreads workload seeds 1000 data seeds apart so neighbouring
// workload seeds do not share shapes. Data seed 0 means "server
// default" on the wire and is never produced.
func seedBase(seed int64) int64 {
	return 1 + int64(uint64(seed-1)%(1<<40))*1000
}

// pickShapes returns n shapes of one template whose data seeds start at
// seedBase(seed), skipping (deterministically, by advancing the data
// seed) every candidate that
//
//   - has an empty reference answer, so no workload passes vacuously;
//   - repeats the fingerprint of a shape already taken, so n shapes are
//     n cached plans;
//   - compiles to a different number of word gates than the template's
//     anchor, the first non-empty data seed counted from 1.
//
// The last rule is what makes runs under different workload seeds
// comparable: the derived degree constraints follow the data, and the
// plan follows them (cycle4 at 8 tuples ranges from 89 k to 136 k gates
// across data seeds), so without it the seed would change the amount of
// work and not only the data.
//
// With salted, shape i also carries the loose constraint "R <= 32+i".
// Small templates need it: 4-tuple relations have too few distinct
// degree profiles for 16 fingerprints.
func pickShapes(ctx context.Context, src string, tuples int, seed int64, n int, salted bool) ([]shape, error) {
	extra := func(i int) string {
		if !salted {
			return ""
		}
		return saltDC(firstSalt + int64(i))
	}
	var anchor *shape
	accepted := func(dataSeed int64, extra string) (*shape, error) {
		if anchor != nil && anchor.Seed == dataSeed && anchor.DCs == extra {
			return anchor, nil
		}
		s, err := newShape(ctx, src, tuples, dataSeed, extra)
		if err != nil || s.Rows == 0 {
			return nil, err
		}
		if err := s.compile(ctx); err != nil {
			return nil, err
		}
		if anchor != nil && s.wordGates() != anchor.wordGates() {
			return nil, nil
		}
		return &s, nil
	}
	for ds := int64(1); anchor == nil; ds++ {
		if ds > maxSkip {
			return nil, fmt.Errorf("no non-empty anchor for %q at %d tuples", src, tuples)
		}
		var err error
		if anchor, err = accepted(ds, extra(0)); err != nil {
			return nil, err
		}
	}

	var out []shape
	seen := map[query.Fingerprint]bool{}
	base := seedBase(seed)
	for ds := base; len(out) < n; ds++ {
		if ds-base > maxSkip {
			return nil, fmt.Errorf("only %d of %d shapes for %q at %d tuples within %d seeds of %d", len(out), n, src, tuples, maxSkip, base)
		}
		s, err := accepted(ds, extra(len(out)))
		if err != nil {
			return nil, err
		}
		if s == nil || seen[s.canon.FP] {
			continue
		}
		seen[s.canon.FP] = true
		out = append(out, *s)
	}
	return out, nil
}

// workloadDef is one traffic mix against a child circuitd.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same line).
	Why string
	// Flags are the daemon flags beyond -listen; Store adds -store with
	// a fresh temp dir per daemon.
	Flags []string
	Store bool
	// Clients > 0 selects the closed loop with that many clients, one
	// connection each. Otherwise the open loop sends Burst requests
	// every Period on one connection.
	Clients int
	Period  time.Duration
	Burst   int
	// Zipf > 1 draws shapes with that skew (rank 0 hottest); otherwise
	// the draw is uniform.
	Zipf float64
	// Fresh gives every request a new salt, hence a new fingerprint and
	// a compile. ColdPass is then how many of them set-up sends.
	Fresh    bool
	ColdPass int
	// Warmup is how many requests set-up sends after the cold pass.
	Warmup int
	// Window is the length of the slices the latency and throughput
	// numbers are judged on (see summarize): long enough to hold a few
	// hundred requests, or a dozen where a request is a compile.
	Window time.Duration
	// shapes builds the workload's shapes from the workload seed.
	shapes func(ctx context.Context, seed int64) ([]shape, error)
}

var workloads = []workloadDef{
	{
		Name:    "hot-eval",
		Why:     "8 cached ~100k-gate triangle plans, 2 closed-loop clients: vm evaluation is most of each request, so a vm/kernel/gate-count change shows here",
		Clients: 2,
		Warmup:  200,
		Window:  250 * time.Millisecond,
		shapes: func(ctx context.Context, seed int64) ([]shape, error) {
			return pickShapes(ctx, triangle, 16, seed, 8, false)
		},
	},
	{
		Name:    "hot-small",
		Why:     "48 cached 1k-9k-gate plans, zipf 1.1, 2 closed-loop clients: wire, canonicalize, admission and cache lookup dominate; a vm change must show nothing here",
		Clients: 2,
		Zipf:    1.1,
		Warmup:  200,
		Window:  250 * time.Millisecond,
		shapes: func(ctx context.Context, seed int64) ([]shape, error) {
			const perTemplate = 16
			templates := []string{pair, path2, triangle}
			byTemplate := make([][]shape, len(templates))
			for i, src := range templates {
				var err error
				if byTemplate[i], err = pickShapes(ctx, src, 4, seed, perTemplate, true); err != nil {
					return nil, err
				}
			}
			// Interleave so every run of zipf ranks holds every template.
			var out []shape
			for i := 0; i < perTemplate*len(templates); i++ {
				out = append(out, byTemplate[i%len(templates)][i/len(templates)])
			}
			return out, nil
		},
	},
	{
		Name:     "cold-compile",
		Why:      "every request a fresh fingerprint (cycle4, 8 tuples, salted DC), 1 closed-loop client, -store: LP, proof search, PANDA-C, lowering, optimizer, vm-compile, eviction, store write; evaluation is <1%",
		Store:    true,
		Clients:  1,
		Fresh:    true,
		ColdPass: 3,
		Window:   2500 * time.Millisecond,
		shapes: func(ctx context.Context, seed int64) ([]shape, error) {
			return pickShapes(ctx, cycle4, 8, seed, 1, true)
		},
	},
	{
		Name:   "burst-batch",
		Why:    "open loop, 8 identical triangle requests every 10 ms (800/s offered) through same-fingerprint coalescing: the vm batch path and the 1 ms batch window, judged from each burst's due time",
		Flags:  []string{"-batch-size", "16", "-max-inflight", "16", "-queue-depth", "64", "-batch-window", "1ms"},
		Period: 10 * time.Millisecond,
		Burst:  8,
		Warmup: 200,
		Window: 250 * time.Millisecond,
		shapes: func(ctx context.Context, seed int64) ([]shape, error) {
			return pickShapes(ctx, triangle, 12, seed, 1, false)
		},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// picker returns one client's shape draws, as indices into the
// workload's n shapes. Draws are a function of (workload seed, client
// id) only.
func (w *workloadDef) picker(n int, seed int64, client int) func() int {
	rng := rand.New(rand.NewSource(seed + int64(client)*7919))
	if w.Zipf > 1 && n > 1 {
		z := rand.NewZipf(rng, w.Zipf, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// stream returns one client's requests. Fresh workloads draw salts from
// the shared counter so no two requests of a run — set-up included —
// share a fingerprint.
func (w *workloadDef) stream(shapes []shape, seed int64, client int, salt *atomic.Int64) func() call {
	if w.Fresh {
		return func() call { return shapes[0].salted(salt.Add(1)).call() }
	}
	pick := w.picker(len(shapes), seed, client)
	return func() call { return shapes[pick()].call() }
}
