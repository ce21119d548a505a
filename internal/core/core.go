// Package core assembles the paper's primary contribution end to end:
// given a conjunctive query and degree constraints, it compiles a
// PANDA-C relational circuit (Theorem 3) and lowers every relational gate
// to the oblivious word-level circuits of Section 5, producing a single
// data-independent circuit of Õ(1) depth and Õ(N + DAPB(Q)) size that
// computes Q(D) for every conforming instance (Theorem 4).
//
// The package also provides the Brent-theorem PRAM scheduler used by the
// parallel-evaluation experiments: a circuit of size W and depth D runs
// in O(W/P + D) steps on P processors [12].
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/bound"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/opcircuits"
	"circuitql/internal/opt"
	"circuitql/internal/panda"
	"circuitql/internal/proofseq"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
	"circuitql/internal/vm"
)

// InputSpec describes one input relation of an oblivious circuit: its
// database key, schema, and slot capacity. Inputs are packed in spec
// order.
type InputSpec struct {
	Name     string
	Schema   []string
	Capacity int
}

// OutputSpec locates one decoded output in the flat output vector.
type OutputSpec struct {
	Gate     int // relational-circuit gate id
	Schema   []string
	Capacity int
	Offset   int // starting index among the circuit outputs
}

// ObliviousCircuit is a compiled word-level circuit with the metadata
// needed to feed relations in and decode relations out.
type ObliviousCircuit struct {
	C       *boolcircuit.Circuit
	Inputs  []InputSpec
	Outputs []OutputSpec
}

// CompileObliviousCtx lowers a relational circuit gate by gate into an
// oblivious circuit. Every wire's slot capacity is the ceiling of its
// declared cardinality bound; join strategies are chosen from the
// declared degree bounds exactly as Section 5 prescribes (primary-key
// join when the degree bound is 1, degree-bounded join otherwise,
// cross product when there are no common attributes).
//
// The lowering loop polls ctx per relational gate and charges the
// growing word-level gate count against any guard.Budget gate cap, so a
// tight budget aborts the lowering instead of materialising an enormous
// circuit. The whole lowering runs under an obs boolcircuit span
// counting the word gates built. The circuit is the paper's, gate for
// gate (boolcircuit.New).
func CompileObliviousCtx(ctx context.Context, rc *relcircuit.Circuit) (*ObliviousCircuit, error) {
	oc, err := lower(ctx, rc, boolcircuit.New())
	if err != nil {
		return nil, err
	}
	// The circuit is finished: the evaluators and the plan cache only
	// read it, so nothing should keep the hash-consing index alive for
	// the plan's lifetime.
	oc.C.ReleaseHashTable()
	return oc, nil
}

// lower is the lowering itself, into the empty builder c: the paper's
// verbatim one for the exported entry points, the rewriting one for a
// served compile, which then holds the folded circuit and never the raw
// one. The builder keeps its hash-consing index; the caller drops it
// (ReleaseHashTable) or the whole builder (Release).
func lower(ctx context.Context, rc *relcircuit.Circuit, c *boolcircuit.Circuit) (_ *ObliviousCircuit, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageBoolCirc)
	budget := guard.FromContext(ctx)
	c.Grow(wordGateEstimate(rc))
	defer func() {
		sp.AddInt(obs.CounterGates, int64(c.Size()))
		sp.SetError(err)
		sp.End()
	}()
	oc := &ObliviousCircuit{C: c}
	vals := make([]opcircuits.ORel, len(rc.Gates))

	capOf := func(g relcircuit.Gate) (int, error) {
		if math.IsInf(g.Out.Card, 0) || math.IsNaN(g.Out.Card) {
			return 0, fmt.Errorf("core: gate %d (%v) has no finite cardinality bound", g.ID, g.Kind)
		}
		return relcircuit.Ceil(g.Out.Card), nil
	}

	for _, g := range rc.Gates {
		if err := budget.CheckGates(ctx, c.Size()); err != nil {
			return nil, err
		}
		capacity, err := capOf(g)
		if err != nil {
			return nil, err
		}
		var out opcircuits.ORel
		switch g.Kind {
		case relcircuit.KindInput:
			out = opcircuits.NewInput(c, g.Schema, capacity)
			oc.Inputs = append(oc.Inputs, InputSpec{Name: g.Name, Schema: g.Schema, Capacity: capacity})
		case relcircuit.KindSelect:
			out = opcircuits.Select(c, vals[g.In[0]], g.Pred)
		case relcircuit.KindProject:
			out = opcircuits.Project(c, vals[g.In[0]], g.Attrs)
		case relcircuit.KindUnion:
			out = opcircuits.Union(c, vals[g.In[0]], vals[g.In[1]])
		case relcircuit.KindAgg:
			out = opcircuits.Aggregate(c, vals[g.In[0]], g.GroupBy, g.AggKind, g.AggOver, g.AggAs)
		case relcircuit.KindOrder:
			out = opcircuits.Order(c, vals[g.In[0]], g.Attrs)
		case relcircuit.KindMap:
			cols := make([]opcircuits.MapCol, len(g.MapExprs))
			for i, me := range g.MapExprs {
				cols[i] = opcircuits.MapCol{As: me.As, E: me.E}
			}
			out = opcircuits.Map(c, vals[g.In[0]], cols)
		case relcircuit.KindCap:
			out = opcircuits.Truncate(c, vals[g.In[0]], capacity)
		case relcircuit.KindJoin:
			r, s := vals[g.In[0]], vals[g.In[1]]
			f := commonAttrs(r.Schema, s.Schema)
			if len(f) == 0 {
				out = opcircuits.DegJoin(c, r, s, s.Capacity())
			} else {
				sBound := rc.Gates[g.In[1]].Out
				deg := relcircuit.Ceil(sBound.DegOn(f))
				out = opcircuits.DegJoin(c, r, s, deg)
			}
		default:
			return nil, fmt.Errorf("core: unknown relational gate kind %v", g.Kind)
		}
		// Enforce the declared wire bound: shrink capacity when the
		// declared cardinality is below the operator's natural output
		// capacity, so downstream sizes follow the cost model.
		if capacity < out.Capacity() {
			out = opcircuits.Truncate(c, out, capacity)
		}
		vals[g.ID] = out
	}

	offset := 0
	for _, id := range rc.Outputs {
		r := vals[id]
		opcircuits.MarkOutputs(c, r)
		oc.Outputs = append(oc.Outputs, OutputSpec{
			Gate: id, Schema: r.Schema, Capacity: r.Capacity(), Offset: offset,
		})
		offset += r.Capacity() * (1 + len(r.Schema))
	}
	return oc, nil
}

// wordGateEstimate guesses how many word gates lowering rc will build,
// as a sizing hint for the builder (boolcircuit.Grow): the lowering of a
// relational gate is a handful of sorting networks over its M input
// slots of 1+w words each, so M·(1+w)·log²M per gate, times a constant
// measured on the catalog (uniform and derived constraints, N = 3..16:
// the true count is 1.7-6.4 times the sum, 2-4.5 for all but a few).
// Only allocation depends on it — an estimate that is too low costs the
// builder the append regrowths it did not save (copies of the gate list,
// depths and index links, no rehash), one that is too high some zeroed
// memory, which maxHint bounds. On the cold-compile shape the hint saves
// 12 MB of allocation and 4-13 ms of lowering a compile (EXPERIMENTS.md).
func wordGateEstimate(rc *relcircuit.Circuit) int {
	slots := func(card float64) float64 {
		if math.IsInf(card, 0) || math.IsNaN(card) {
			return 0 // the lowering rejects the gate; no size to guess
		}
		return float64(relcircuit.Ceil(card))
	}
	sum := 0.0
	for _, g := range rc.Gates {
		if g.Kind == relcircuit.KindInput {
			continue
		}
		fanIn := 0.0
		for _, in := range g.In {
			fanIn += slots(rc.Gates[in].Out.Card)
		}
		m := math.Max(fanIn, slots(g.Out.Card))
		lg := math.Log2(m + 1)
		sum += m * float64(1+len(g.Schema)) * lg * lg
	}
	const perUnit, maxHint = 3, 1 << 22
	return int(math.Min(perUnit*sum, maxHint))
}

// EvaluateCtx packs the named relations, runs the circuit, and decodes
// every output (see boolcircuit.EvaluateCtx for what ctx governs).
// Relations must conform to the bounds the circuit was compiled for
// (otherwise packing fails on capacity).
func (oc *ObliviousCircuit) EvaluateCtx(ctx context.Context, db map[string]*relation.Relation) (map[int]*relation.Relation, error) {
	inputs, err := oc.pack(db)
	if err != nil {
		return nil, err
	}
	raw, err := oc.C.EvaluateCtx(ctx, inputs)
	if err != nil {
		return nil, err
	}
	return oc.decode(raw)
}

// pack lays the named relations out as the circuit's input words.
func (oc *ObliviousCircuit) pack(db map[string]*relation.Relation) ([]int64, error) {
	var inputs []int64
	for _, spec := range oc.Inputs {
		rel, ok := db[spec.Name]
		if !ok {
			return nil, fmt.Errorf("core: database missing relation %q", spec.Name)
		}
		packed, err := opcircuits.Pack(rel, spec.Schema, spec.Capacity)
		if err != nil {
			return nil, fmt.Errorf("core: packing %q: %w", spec.Name, err)
		}
		inputs = append(inputs, packed...)
	}
	return inputs, nil
}

// decode recovers every output relation from the circuit's raw words.
func (oc *ObliviousCircuit) decode(raw []int64) (map[int]*relation.Relation, error) {
	out := make(map[int]*relation.Relation, len(oc.Outputs))
	for _, spec := range oc.Outputs {
		width := spec.Capacity * (1 + len(spec.Schema))
		rel, err := opcircuits.Decode(spec.Schema, raw[spec.Offset:spec.Offset+width])
		if err != nil {
			return nil, err
		}
		out[spec.Gate] = rel
	}
	return out, nil
}

func commonAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// Compiled bundles the two circuit layers for one query.
type Compiled struct {
	Query     *query.Query
	DC        query.DCSet
	Rel       *relcircuit.Circuit
	RelOutput int
	// Obliv is the word circuit with its packing metadata. Obliv.C is
	// nil for a plan read from a file, which holds only the specs and
	// the program.
	Obliv *ObliviousCircuit
	// Prog is the vm program of Obliv.C, compiled with the plan or read
	// from its file: always set.
	Prog  *vm.Program
	Bound *bound.Result
	// Opt reports the optimizer's before/after sizes; nil when the
	// passes were disabled (CompileOptions.NoOpt).
	Opt *opt.Report
	// Seq is the proof sequence PANDA-C followed and Restarts the
	// truncation-path re-derivations it took; a plan rebuilt from a file
	// leaves both zero.
	Seq      proofseq.Sequence
	Restarts int

	// packOnce/packPlan cache the input layout PackOblivious needs, so
	// the per-request pack writes straight from the user's relations
	// into one flat buffer instead of materialising renamed Relations
	// (string-keyed dedup maps) that are iterated once and thrown away.
	// packErr is why the layout could not be built.
	packOnce  sync.Once
	packPlan  []packSpec
	packWidth int
	packErr   error
}

// packSpec is the precomputed recipe for packing one oblivious input
// directly from the base relation of the atom it came from.
type packSpec struct {
	atomName string   // key of the base relation in the user's database
	arity    int      // arity the base relation must have
	cols     []int    // base tuple position of each schema attribute
	dupPairs [][2]int // base positions a repeated variable forces equal
	capacity int
	width    int // capacity * (1 + len(cols)) words
}

// CompileOptions tunes the compile pipeline. The zero value is the
// default: optimizer passes enabled.
type CompileOptions struct {
	// NoOpt skips the optimizer — opt.Rel, the rewriting word-circuit
	// builder and the sweep — emitting the paper's constructions
	// verbatim: the escape hatch for debugging and for measuring the
	// constructions' raw constant factors.
	NoOpt bool
}

// CompileQueryCtx runs the full pipeline for a full CQ: PANDA-C to a
// relational circuit, opt.Rel on it, then the oblivious lowering through
// the rewriting builder — the word-level optimizer, folding each gate as
// it is built — and a sweep of the gates that left unused.
//
// The plan comes with its vm program (Compiled.Prog), compiled from the
// folded circuit while the sweep runs, so the two read the lowering's
// output at once and the program costs the compile little wall time
// where a core is free.
//
// The PANDA-C compilation, the oblivious lowering, the sweep and the vm
// compile poll ctx and respect any guard.Budget it carries. The
// pipeline runs under an obs compile span whose children are the
// lp-solve, proofseq, relcircuit, boolcircuit, optimize and vm-compile
// stages, the last two overlapping.
func CompileQueryCtx(ctx context.Context, q *query.Query, dcs query.DCSet) (*Compiled, error) {
	return CompileQueryOptsCtx(ctx, q, dcs, CompileOptions{})
}

// CompileQueryOptsCtx is CompileQueryCtx with explicit options.
func CompileQueryOptsCtx(ctx context.Context, q *query.Query, dcs query.DCSet, opts CompileOptions) (_ *Compiled, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageCompile)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	res, err := panda.CompileFCQCtx(ctx, q, dcs)
	if err != nil {
		return nil, err
	}
	rel, relOutput := res.Circuit, res.Output

	var report *opt.Report
	if !opts.NoOpt {
		report = &opt.Report{
			RelGatesBefore: rel.Size(), RelDepthBefore: rel.Depth(),
		}
		optStart := time.Now()
		optRel, mapping := opt.Rel(rel)
		newOut, ok := mapping[relOutput]
		if !ok {
			return nil, fmt.Errorf("%w: core: optimizer dropped the output gate", guard.ErrInternal)
		}
		rel, relOutput = optRel, newOut
		report.RelGatesAfter, report.RelDepthAfter = rel.Size(), rel.Depth()
		report.Elapsed = time.Since(optStart)
	}

	var obl *ObliviousCircuit
	var prog *vm.Program
	if opts.NoOpt {
		if obl, err = CompileObliviousCtx(ctx, rel); err != nil {
			return nil, err
		}
		if prog, err = vm.Compile(ctx, obl.C); err != nil {
			return nil, err
		}
	} else if obl, prog, err = foldAndSweep(ctx, rel, report); err != nil {
		return nil, err
	}

	sp.AddInt(obs.CounterRelGates, int64(rel.Size()))
	sp.AddInt(obs.CounterGates, int64(obl.C.Size()))
	return &Compiled{
		Query:     q,
		DC:        dcs,
		Rel:       rel,
		RelOutput: relOutput,
		Obliv:     obl,
		Prog:      prog,
		Bound:     res.Bound,
		Opt:       report,
		Seq:       res.Seq,
		Restarts:  res.Restarts,
	}, nil
}

// foldAndSweep lowers rel through a pooled rewriting builder — the
// word-level optimizer, folding each gate as it is built — then sweeps
// out the gates the rewrites left unused and, beside the sweep, compiles
// the vm program from the folded circuit: vm.Compile reads only the
// output cone, so the program is the swept circuit's. The builder's
// buffers go back to the pool once both have read them.
func foldAndSweep(ctx context.Context, rel *relcircuit.Circuit, report *opt.Report) (*ObliviousCircuit, *vm.Program, error) {
	folded := boolcircuit.NewPooledRewriting()
	defer folded.Release()
	obl, err := lower(ctx, rel, folded)
	if err != nil {
		return nil, nil, err
	}
	var prog *vm.Program
	var vmErr error
	compiled := make(chan struct{})
	go func() {
		defer close(compiled)
		defer guard.Recover(&vmErr)
		prog, vmErr = vm.Compile(ctx, folded)
	}()
	swept, err := sweep(ctx, folded, report)
	<-compiled
	if err != nil {
		return nil, nil, err
	}
	if vmErr != nil {
		return nil, nil, vmErr
	}
	obl.C = swept
	return obl, prog, nil
}

// sweep is what is left of the word-level optimizer after a folding
// lowering: Prune, under the optimize span, recorded in report.
func sweep(ctx context.Context, folded *boolcircuit.Circuit, report *opt.Report) (_ *boolcircuit.Circuit, err error) {
	_, sp := obs.StartSpan(ctx, obs.StageOptimize)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	start := time.Now()
	report.WordGatesBefore, report.WordDepthBefore = folded.Size(), folded.Depth()
	swept, err := folded.Prune(ctx)
	if err != nil {
		return nil, err
	}
	if swept.NumInputs() != folded.NumInputs() || len(swept.Outputs()) != len(folded.Outputs()) {
		return nil, fmt.Errorf("%w: core: optimizer changed the circuit interface (%d/%d inputs, %d/%d outputs)",
			guard.ErrInternal, swept.NumInputs(), folded.NumInputs(), len(swept.Outputs()), len(folded.Outputs()))
	}
	report.WordGatesAfter, report.WordDepthAfter = swept.Size(), swept.Depth()
	report.Elapsed += time.Since(start)
	sp.AddInt(obs.CounterOptGatesBefore, int64(report.WordGatesBefore))
	sp.AddInt(obs.CounterOptGatesAfter, int64(report.WordGatesAfter))
	sp.AddInt(obs.CounterOptNanos, report.Elapsed.Nanoseconds())
	return swept, nil
}

// EvaluateObliviousCtx runs the oblivious circuit on a database and
// returns Q(D).
func (cq *Compiled) EvaluateObliviousCtx(ctx context.Context, db query.Database) (*relation.Relation, error) {
	pdb, err := panda.PrepareDB(cq.Query, db)
	if err != nil {
		return nil, err
	}
	outs, err := cq.Obliv.EvaluateCtx(ctx, pdb)
	if err != nil {
		return nil, err
	}
	return outs[cq.RelOutput], nil
}

// PackOblivious prepares db for the query and lays it out as the
// oblivious circuit's flat input words — the front half of
// EvaluateObliviousCtx, split out so a batch evaluator (internal/vm)
// can pack many databases and run them through one compiled program in
// lock-step. The first call precomputes a pack plan mapping each input
// spec back to its atom's base relation; subsequent calls write the
// tuples straight into one preallocated buffer, which keeps the pack
// side of batch serving off the per-request allocation path.
func (cq *Compiled) PackOblivious(db query.Database) ([]int64, error) {
	cq.packOnce.Do(cq.buildPackPlan)
	if cq.packErr != nil {
		return nil, cq.packErr
	}
	out := make([]int64, cq.packWidth)
	off := 0
	for si := range cq.packPlan {
		ps := &cq.packPlan[si]
		r, ok := db[ps.atomName]
		if !ok {
			return nil, fmt.Errorf("core: database missing relation %q", ps.atomName)
		}
		if r.Arity() != ps.arity {
			return nil, fmt.Errorf("core: relation %q has arity %d, atom uses %d variables",
				ps.atomName, r.Arity(), ps.arity)
		}
		n, rowW := 0, 1+len(ps.cols)
		var err error
		r.Each(func(t relation.Tuple) {
			for _, p := range ps.dupPairs {
				if t[p[0]] != t[p[1]] {
					return
				}
			}
			if n >= ps.capacity {
				err = fmt.Errorf("core: packing %q: relation has more than %d tuples, capacity %d",
					ps.atomName, n, ps.capacity)
				return
			}
			row := out[off+n*rowW : off+(n+1)*rowW]
			row[0] = 1
			for k, c := range ps.cols {
				if t[c] == opcircuits.Sentinel {
					err = fmt.Errorf("core: packing %q: value collides with the reserved sentinel", ps.atomName)
				}
				row[1+k] = t[c]
			}
			n++
		})
		if err != nil {
			return nil, err
		}
		off += ps.width
	}
	return out, nil
}

// buildPackPlan resolves every oblivious input spec back to the query
// atom it was built from and records, per spec, the base-relation
// column of each schema attribute plus the equality filter a repeated
// variable implies. An input the lowering named after no atom, or whose
// schema holds an attribute the atom lacks, is a broken plan: packErr
// says which, and PackOblivious returns it (typed guard.ErrInternal).
func (cq *Compiled) buildPackPlan() {
	q := cq.Query
	byName := make(map[string]int, len(q.Atoms))
	for i := range q.Atoms {
		byName[panda.InputName(q, i)] = i
	}
	plan := make([]packSpec, 0, len(cq.Obliv.Inputs))
	total := 0
	for _, spec := range cq.Obliv.Inputs {
		ai, ok := byName[spec.Name]
		if !ok {
			cq.packErr = fmt.Errorf("%w: core: oblivious input %q is no atom's input", guard.ErrInternal, spec.Name)
			return
		}
		a := q.Atoms[ai]
		// First occurrence of each variable keeps its column; later
		// occurrences only constrain.
		firstPos := make(map[string]int, len(a.Vars))
		var dups [][2]int
		for j, v := range a.Vars {
			name := q.VarNames[v]
			if j0, seen := firstPos[name]; seen {
				dups = append(dups, [2]int{j0, j})
			} else {
				firstPos[name] = j
			}
		}
		cols := make([]int, len(spec.Schema))
		for k, attr := range spec.Schema {
			j, seen := firstPos[attr]
			if !seen {
				cq.packErr = fmt.Errorf("%w: core: oblivious input %q has attribute %q, which its atom lacks",
					guard.ErrInternal, spec.Name, attr)
				return
			}
			cols[k] = j
		}
		ps := packSpec{
			atomName: a.Name,
			arity:    len(a.Vars),
			cols:     cols,
			dupPairs: dups,
			capacity: spec.Capacity,
			width:    spec.Capacity * (1 + len(spec.Schema)),
		}
		total += ps.width
		plan = append(plan, ps)
	}
	cq.packPlan, cq.packWidth = plan, total
}

// DecodeOblivious recovers Q(D) from the circuit's raw output words —
// the back half of EvaluateObliviousCtx. raw must be the circuit's
// outputs in MarkOutput order, as produced by boolcircuit evaluation or
// a vm program compiled from cq.Obliv.C.
func (cq *Compiled) DecodeOblivious(raw []int64) (*relation.Relation, error) {
	outs, err := cq.Obliv.decode(raw)
	if err != nil {
		return nil, err
	}
	return outs[cq.RelOutput], nil
}

// EvaluateRelationalCtx runs the relational circuit (the reference
// layer) with optional bound checking.
func (cq *Compiled) EvaluateRelationalCtx(ctx context.Context, db query.Database, check bool) (*relation.Relation, error) {
	pdb, err := panda.PrepareDB(cq.Query, db)
	if err != nil {
		return nil, err
	}
	outs, err := cq.Rel.EvaluateCtx(ctx, pdb, check)
	if err != nil {
		return nil, err
	}
	return outs[cq.RelOutput], nil
}

// BrentSchedule simulates evaluating the circuit on p processors by
// greedy level-by-level scheduling and returns the number of parallel
// steps: Σ_levels ⌈W_l / p⌉ ≤ W/p + D, Brent's bound [12].
func BrentSchedule(c *boolcircuit.Circuit, p int) int {
	if p < 1 {
		p = 1
	}
	steps := 0
	for _, w := range c.LevelSizes() {
		steps += (w + p - 1) / p
	}
	return steps
}
