// Package obs is the observability layer of the pipeline: hierarchical
// tracing spans carried by context.Context, per-stage aggregates, and
// metric exposition in Prometheus text format and JSON. It depends only
// on the standard library.
//
// The paper's cost currency is circuit size and depth, so spans carry
// integer counters (gates, wires, rows, pivots, proof steps) alongside
// wall time: a span tree answers "where did this compile spend its
// budget" in exactly the units Theorems 3-5 charge.
//
// Instrumentation contract: every hook point in the pipeline is
//
//	ctx, sp := obs.StartSpan(ctx, obs.StageLPSolve)
//	defer sp.End()
//	...
//	sp.AddInt(obs.CounterPivots, n)
//
// and when ctx carries no tracer (the default for every caller that
// never asked for tracing) StartSpan returns (ctx, nil) after a single
// branch on two context lookups, allocating nothing; all Span methods
// are no-ops on a nil receiver. The hot paths therefore pay one
// predictable branch per *stage*, never per gate.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical stage names of the span taxonomy (DESIGN.md
// "Observability"). Compile stages nest under StageCompile; evaluation
// tier attempts nest under StageEvaluate; an engine request is a
// StageServe root spanning both.
const (
	StageServe    = "serve"            // one engine request (admission + compile wait + evaluate)
	StageCompile  = "compile"          // core.CompileQueryCtx end to end
	StageLPSolve  = "lp-solve"         // Shannon-flow bound derivation (exact LPs)
	StageProofSeq = "proofseq"         // proof-sequence search
	StageRelCirc  = "relcircuit"       // PANDA-C relational-circuit emission
	StageBoolCirc = "boolcircuit"      // word-level oblivious lowering
	StageOptimize = "optimize"         // post-compile optimizer passes (internal/opt)
	StageBitblast = "bitblast"         // strict bit-level blast (§4.1 model)
	StageYanPlan  = "yannakakis-plan"  // GHD + width search
	StageYanCount = "yannakakis-count" // output-sensitive count circuit
	StageRelEval  = "relcircuit-eval"  // relational-circuit evaluation
	StageBoolEval = "boolcircuit-eval" // oblivious word-circuit evaluation
	StageVMComp   = "vm-compile"       // word circuit → vectorized SoA program (internal/vm)
	StageVMEval   = "vm-eval"          // one batched vm evaluation (one span per batch)
	StageStore    = "store-load"       // plan-store read + decode on a cache miss
	StageTier     = "tier/"            // + tier name: one tier attempt of the ladder
	StageCanon    = "canonicalize"     // query.Canonicalize in Submit; absent on a prepared request
	StageAdmit    = "admission"        // enqueue → worker pickup (the lane queue wait)
	StageValidate = "validate"         // query.ValidateDB: the database against the request's DCs
	StagePack     = "pack"             // database → vm input words
	StageDecode   = "decode"           // vm output words → relation
	StageRename   = "rename"           // canonical output columns → the request's names and order
)

// Canonical counter keys. A span's integer counters sum across
// retries/solves under the same span, and aggregate per stage name into
// circuitql_stage_counter_total{stage,counter}.
const (
	CounterGates    = "gates"     // circuit gates built or evaluated
	CounterRelGates = "rel_gates" // relational gates
	CounterRows     = "rows"      // output rows materialized
	CounterPivots   = "lp_pivots" // simplex pivots
	CounterSolves   = "lp_solves" // LP solves completed
	CounterSteps    = "proof_steps"
	CounterRestarts = "restarts" // truncation-path re-derivations

	// CounterBatchSize is the number of requests evaluated in lock-step
	// by one vm-eval span; gates on the same span is the program size, so
	// work = gates × batch_size and occupancy = batch_size sums / span
	// counts.
	CounterBatchSize = "batch_size"

	// vm-compile counters: the program a word circuit became. gates on
	// the same span is the circuit's size; instructions is what an
	// evaluation executes, fused_swap and fused_lex how many of them are
	// the two fused forms (two and four gates each), levels the depth of
	// the instruction DAG.
	CounterInstructions = "instructions"
	CounterLevels       = "levels"
	CounterFusedSwap    = "fused_swap"
	CounterFusedLex     = "fused_lex"

	// Optimizer counters (internal/opt), attached to the optimize span:
	// word-gate count entering and leaving the passes, and the passes'
	// wall time in nanoseconds (also visible as the span duration; the
	// counter makes it scrapeable as a stage counter family).
	CounterOptGatesBefore = "gates_before"
	CounterOptGatesAfter  = "gates_after"
	CounterOptNanos       = "opt_ns"
)

// Attr is one key/value attached to a span: an integer counter
// (accumulated with AddInt) or a string tag (set with SetTag).
type Attr struct {
	Key string
	Int int64
	Str string // tag value; counters leave it empty
	tag bool
}

// Span is one timed node of a trace tree. All methods are safe on a nil
// receiver (the untraced fast path) and safe for concurrent use, so a
// parent span may be shared by goroutines of a parallel evaluation.
type Span struct {
	Name  string
	Start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
	tracer   *Tracer
	parent   *Span
}

// Duration returns the span's wall time (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// AddInt accumulates an integer counter on the span.
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if !s.attrs[i].tag && s.attrs[i].Key == key {
			s.attrs[i].Int += v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// SetTag sets a string tag on the span (last write wins).
func (s *Span) SetTag(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].tag && s.attrs[i].Key == key {
			s.attrs[i].Str = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: val, tag: true})
}

// SetError tags the span with a failure cause (no-op on nil error).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetTag("error", err.Error())
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// End closes the span now; see EndAt. On a nil span it does not read
// the clock.
func (s *Span) End() {
	if s != nil {
		s.EndAt(time.Now())
	}
}

// EndAt closes the span at t, records its duration, folds it into the
// tracer's per-stage aggregates, and — for a root span — publishes the
// finished tree to the tracer's ring buffer. Idempotent: only the first
// End or EndAt counts.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = t.Sub(s.Start)
	tr, root := s.tracer, s.parent == nil
	attrs := make([]Attr, len(s.attrs))
	copy(attrs, s.attrs)
	d := s.dur
	s.mu.Unlock()
	if tr == nil {
		return
	}
	tr.record(s.Name, d, attrs)
	if root {
		tr.push(s)
	}
}

func (s *Span) newChild(name string) *Span {
	c := &Span{Name: name, Start: time.Now(), tracer: s.tracer, parent: s}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

type spanKey struct{}
type tracerKey struct{}

// WithTracer returns a context whose span hook points record into t.
// Spans started under the returned context with no enclosing span
// become roots in t's ring buffer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithSpan attaches an existing span to ctx as the parent of subsequent
// StartSpan calls. This is for work that continues on a detached
// context — e.g. a compile flight that outlives its leader's
// cancellation — but should still nest under the originating request's
// tree instead of surfacing as an extra root.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if ctx == nil || s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// StartSpan begins a span named name under the context's current span
// (or as a new root when the context carries a Tracer but no span) and
// returns a derived context carrying it. When the context carries
// neither — the untraced fast path — it returns (ctx, nil) without
// allocating; every Span method tolerates the nil.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		c := parent.newChild(name)
		return context.WithValue(ctx, spanKey{}, c), c
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	root := &Span{Name: name, Start: time.Now(), tracer: t}
	return context.WithValue(ctx, spanKey{}, root), root
}

// StageAgg is the accumulated footprint of one stage name across every
// finished span: how often it ran, total wall time, and counter sums.
type StageAgg struct {
	Count    int64
	TotalDur time.Duration
	MaxDur   time.Duration
	Counters map[string]int64
	Errors   int64 // spans that ended carrying an "error" tag
}

// Tracer collects finished spans: per-stage aggregates for metrics and
// a ring buffer of recent root trees for /trace/last. Safe for
// concurrent use. The zero value is unusable; create with NewTracer.
type Tracer struct {
	mu   sync.Mutex
	ring []*Span // most recent last
	cap  int
	agg  map[string]*StageAgg
}

// NewTracer returns a tracer keeping the last ringSize root span trees
// (minimum 1; 0 selects 64).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 64
	}
	return &Tracer{cap: ringSize, agg: make(map[string]*StageAgg)}
}

func (t *Tracer) record(name string, d time.Duration, attrs []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		a = &StageAgg{Counters: make(map[string]int64)}
		t.agg[name] = a
	}
	a.Count++
	a.TotalDur += d
	if d > a.MaxDur {
		a.MaxDur = d
	}
	for _, at := range attrs {
		if at.tag {
			if at.Key == "error" {
				a.Errors++
			}
			continue
		}
		a.Counters[at.Key] += at.Int
	}
}

func (t *Tracer) push(root *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == t.cap {
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = root
		return
	}
	t.ring = append(t.ring, root)
}

// Last returns up to n recent root spans, most recent first.
func (t *Tracer) Last(n int) []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]*Span, n)
	for i := 0; i < n; i++ {
		out[i] = t.ring[len(t.ring)-1-i]
	}
	return out
}

// Aggregates returns a deep copy of the per-stage aggregates.
func (t *Tracer) Aggregates() map[string]StageAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]StageAgg, len(t.agg))
	for name, a := range t.agg {
		c := make(map[string]int64, len(a.Counters))
		for k, v := range a.Counters {
			c[k] = v
		}
		cp := *a
		cp.Counters = c
		out[name] = cp
	}
	return out
}

// Format renders a span tree as an indented text block:
//
//	serve 12.3ms fp=9f21e hit=false
//	  compile 11.8ms
//	    lp-solve 3.1ms [lp_pivots=210 lp_solves=12]
//	    ...
func Format(s *Span) string {
	var b strings.Builder
	formatInto(&b, s, 0)
	return b.String()
}

func formatInto(b *strings.Builder, s *Span, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	name, d := s.Name, s.dur
	if !s.ended {
		d = time.Since(s.Start)
	}
	attrs := make([]Attr, len(s.attrs))
	copy(attrs, s.attrs)
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %v", name, d.Round(time.Microsecond))
	var counters, tags []Attr
	for _, a := range attrs {
		if a.tag {
			tags = append(tags, a)
		} else {
			counters = append(counters, a)
		}
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].Key < counters[j].Key })
	sort.Slice(tags, func(i, j int) bool { return tags[i].Key < tags[j].Key })
	if len(counters) > 0 {
		b.WriteString(" [")
		for i, a := range counters {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%s=%d", a.Key, a.Int)
		}
		b.WriteByte(']')
	}
	for _, a := range tags {
		fmt.Fprintf(b, " %s=%q", a.Key, a.Str)
	}
	b.WriteByte('\n')
	for _, c := range children {
		formatInto(b, c, depth+1)
	}
}
