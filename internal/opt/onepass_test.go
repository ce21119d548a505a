package opt_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/core"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
	"circuitql/internal/opt"
	"circuitql/internal/query"
	"circuitql/internal/store"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

func mustBool(t testing.TB, c *boolcircuit.Circuit) *boolcircuit.Circuit {
	t.Helper()
	o, err := opt.BoolCtx(context.Background(), c)
	if err != nil {
		t.Fatalf("opt.BoolCtx: %v", err)
	}
	return o
}

// assertSameCircuit requires a and b to be one circuit: the same gates
// at the same ids and depths, the same input wires, the same output
// wires in the same order.
func assertSameCircuit(t *testing.T, aName string, a *boolcircuit.Circuit, bName string, b *boolcircuit.Circuit) {
	t.Helper()
	if a.Size() != b.Size() || a.Depth() != b.Depth() {
		t.Fatalf("%s: %d gates, depth %d; %s: %d gates, depth %d",
			aName, a.Size(), a.Depth(), bName, b.Size(), b.Depth())
	}
	for i := 0; i < b.Size(); i++ {
		if a.GateAt(i) != b.GateAt(i) || a.DepthOf(i) != b.DepthOf(i) {
			t.Fatalf("gate %d: %s %+v at depth %d, %s %+v at depth %d",
				i, aName, a.GateAt(i), a.DepthOf(i), bName, b.GateAt(i), b.DepthOf(i))
		}
	}
	assertSameInterface(t, aName, a, bName, b)
	aOut, bOut := a.Outputs(), b.Outputs()
	for i := range bOut {
		if aOut[i] != bOut[i] {
			t.Fatalf("output %d: %s wire %d, %s wire %d", i, aName, aOut[i], bName, bOut[i])
		}
	}
}

// assertSameInterface requires the same input wires and as many outputs.
func assertSameInterface(t *testing.T, aName string, a *boolcircuit.Circuit, bName string, b *boolcircuit.Circuit) {
	t.Helper()
	aIn, bIn := a.InputIDs(), b.InputIDs()
	if len(aIn) != len(bIn) || len(a.Outputs()) != len(b.Outputs()) {
		t.Fatalf("interface: %s %d inputs, %d outputs; %s %d, %d",
			aName, len(aIn), len(a.Outputs()), bName, len(bIn), len(b.Outputs()))
	}
	for i := range bIn {
		if aIn[i] != bIn[i] {
			t.Fatalf("input %d: %s wire %d, %s wire %d", i, aName, aIn[i], bName, bIn[i])
		}
	}
}

// assertMatchesReference holds the one-pass optimizer against the old
// rebuild-until-no-shrink loop on c: the same circuit gate for gate
// (hence the same Size, Depth, input order and output wires) and the
// same outputs as c itself on random vectors.
//
// The one exception is a circuit the old loop gave up on: it judged its
// first rebuild before sweeping the gates that rebuild had left dead, so
// a rebuild that only wins after the sweep was discarded and c returned.
// The one-pass version judges the swept circuit; there it may be
// smaller or shallower than the reference, never the other way round.
func assertMatchesReference(t *testing.T, c *boolcircuit.Circuit, rng *rand.Rand) {
	t.Helper()
	got := mustBool(t, c)
	ref := opt.BoolMultiPassRef(c)

	if ref == c && got != c {
		if got.Size() > ref.Size() || got.Depth() > ref.Depth() {
			t.Fatalf("reference kept the input (%d gates, depth %d) but one pass returned %d gates, depth %d",
				ref.Size(), ref.Depth(), got.Size(), got.Depth())
		}
	} else {
		assertSameCircuit(t, "one pass", got, "reference", ref)
	}
	assertSameInterface(t, "one pass", got, "reference", ref)

	in := make([]int64, c.NumInputs())
	for trial := 0; trial < 4; trial++ {
		for i := range in {
			if rng.Intn(2) == 0 {
				in[i] = int64(rng.Uint64())
			} else {
				in[i] = int64(rng.Intn(7)) - 3
			}
		}
		want, err := c.EvaluateCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for name, o := range map[string]*boolcircuit.Circuit{"one pass": got, "reference": ref} {
			out, err := o.EvaluateCtx(context.Background(), in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("%s, trial %d, output %d: %d, original %d", name, trial, i, out[i], want[i])
				}
			}
		}
	}
}

// forEachCatalogCase runs f as a subtest on every affordable full
// catalog query under the uniform cardinality bound and under
// constraints derived from three seeded instances, and then on the
// shapes the repo benchmark serves, built the way the daemon builds
// them: a template at a tuple count, a workload.ForQuery database, its
// derived constraints, the canonical pair. bowtie is out of reach — its
// PANDA-C compile alone takes minutes — and star3 runs at bound 3 as in
// the differential oracle.
func forEachCatalogCase(t *testing.T, f func(t *testing.T, name string, q *query.Query, dcs query.DCSet)) {
	for _, ent := range query.Catalog() {
		q, name := ent.Query, ent.Name
		if !q.IsFull() || name == "bowtie" {
			continue
		}
		n := 5
		if name == "star3" {
			n = 3
		}
		dcSets := map[string]query.DCSet{"uniform": query.Cardinalities(q, float64(n))}
		for seed := int64(1); seed <= 3; seed++ {
			dcs, err := query.DeriveDC(q, workload.Random(q, seed, n))
			if err != nil {
				t.Fatalf("%s seed %d: derive: %v", name, seed, err)
			}
			dcSets["derived/"+string(rune('0'+seed))] = dcs
		}
		for label, dcs := range dcSets {
			t.Run(name+"/"+label, func(t *testing.T) { f(t, name+"/"+label, q, dcs) })
		}
	}
	for _, served := range []struct {
		name, src string
		tuples    int
	}{
		{"triangle16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
		{"triangle12", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 12},
		{"triangle4", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 4},
		{"pair4", "Q(A,B) :- R(A,B), S(A,B)", 4},
		{"path2_4", "Q(A,B,C) :- R(A,B), S(B,C)", 4},
		{"cycle4_8", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", 8},
	} {
		q, err := query.Parse(served.src)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			dcs, err := query.DeriveDC(q, workload.ForQuery(q, seed, served.tuples))
			if err != nil {
				t.Fatalf("%s seed %d: derive: %v", served.name, seed, err)
			}
			canon, err := query.Canonicalize(q, dcs)
			if err != nil {
				t.Fatalf("%s seed %d: canonicalize: %v", served.name, seed, err)
			}
			name := "served/" + served.name + "/" + string(rune('0'+seed))
			t.Run(name, func(t *testing.T) { f(t, name, canon.Query, canon.DCs) })
		}
	}
}

func mustCompile(t *testing.T, q *query.Query, dcs query.DCSet, opts core.CompileOptions) *core.Compiled {
	t.Helper()
	compiled, err := core.CompileQueryOptsCtx(context.Background(), q, dcs, opts)
	if err != nil {
		t.Fatalf("compile (%+v): %v", opts, err)
	}
	return compiled
}

// planSHA is the SHA-256 of the .plan file the store would write for
// compiled.
func planSHA(t *testing.T, canon *query.Canonical, compiled *core.Compiled) [sha256.Size]byte {
	t.Helper()
	data, err := store.EncodePlan(store.FromCompiled(canon, compiled))
	if err != nil {
		t.Fatalf("encode plan: %v", err)
	}
	return sha256.Sum256(data)
}

// permutedCases are the catalog cases on which a served compile is the
// two-step circuit with some gate ids permuted, not gate for gate: a gate
// that is dead in the raw lowering is never replayed by opt.BoolCtx, but
// the rewriting builder builds it, and when a later live gate rewrites to
// the same node (two sorting-network muxes whose distinct raw conditions
// fold to one wire) the node sits at the dead gate's earlier position.
// Liveness is not known at build time, so this cannot be avoided; the
// fallback bar for these cases is equal size, depth, level histogram and
// vm instruction count, and equal outputs (here and in the repo-level
// differential matrix). A case listed here that turns out gate-for-gate
// equal fails the test, so the list stays honest.
var permutedCases = map[string]bool{"loomis_whitney4/uniform": true}

// sameGates reports whether a and b have the same gate at every id.
func sameGates(a, b *boolcircuit.Circuit) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if a.GateAt(i) != b.GateAt(i) {
			return false
		}
	}
	return true
}

// assertSameShape is the fallback bar of permutedCases.
func assertSameShape(t *testing.T, fused, twoStep *boolcircuit.Circuit, rng *rand.Rand) {
	t.Helper()
	if sameGates(fused, twoStep) {
		t.Fatal("listed in permutedCases but gate-for-gate equal: take it off the list")
	}
	if fused.Size() != twoStep.Size() || fused.Depth() != twoStep.Depth() ||
		!slices.Equal(fused.LevelSizes(), twoStep.LevelSizes()) {
		t.Fatalf("fused compile: %d gates, depth %d; lower then BoolCtx: %d gates, depth %d (or the level histograms differ)",
			fused.Size(), fused.Depth(), twoStep.Size(), twoStep.Depth())
	}
	assertSameInterface(t, "fused compile", fused, "lower then BoolCtx", twoStep)
	var progs [2]*vm.Program
	for i, c := range []*boolcircuit.Circuit{fused, twoStep} {
		p, err := vm.Compile(context.Background(), c)
		if err != nil {
			t.Fatalf("vm compile: %v", err)
		}
		progs[i] = p
	}
	if progs[0].Instructions() != progs[1].Instructions() || progs[0].Levels() != progs[1].Levels() {
		t.Fatalf("vm program: %d instructions in %d levels, lower then BoolCtx gives %d in %d",
			progs[0].Instructions(), progs[0].Levels(), progs[1].Instructions(), progs[1].Levels())
	}
	in := make([]int64, fused.NumInputs())
	for trial := 0; trial < 4; trial++ {
		for i := range in {
			in[i] = int64(rng.Intn(9)) - 1
		}
		got, err := fused.EvaluateCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twoStep.EvaluateCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: outputs differ", trial)
		}
	}
}

// TestBoolMatchesMultiPassReference holds the old multi-pass loop
// against both drivers of the rewrite table, on every catalog case.
//
// The replay driver: opt.BoolCtx of the NoOpt lowering is the
// reference's circuit gate for gate (assertMatchesReference; the
// FuzzOptimize corpus gets the same comparison inside the fuzz target).
//
// The builder-time driver, the acceptance test of lowering and folding
// in one pass: a served compile, which lowers through the rewriting
// builder and only sweeps, is gate for gate and depth for depth what the
// two-step path it replaced produces from the same relational circuit —
// raw lowering (core.CompileObliviousCtx), then opt.BoolCtx — and the
// .plan bytes of the two have one SHA-256; permutedCases lists the
// exceptions and their bar. Neither half may pass vacuously: every case
// must fold at least one gate at build time and sweep at least one.
func TestBoolMatchesMultiPassReference(t *testing.T) {
	forEachCatalogCase(t, func(t *testing.T, name string, q *query.Query, dcs query.DCSet) {
		raw := mustCompile(t, q, dcs, core.CompileOptions{NoOpt: true})
		rng := rand.New(rand.NewSource(int64(raw.Obliv.C.Size())))
		assertMatchesReference(t, raw.Obliv.C, rng)

		fused := mustCompile(t, q, dcs, core.CompileOptions{})
		lowered, err := core.CompileObliviousCtx(context.Background(), fused.Rel)
		if err != nil {
			t.Fatalf("raw lowering of the optimized relational circuit: %v", err)
		}
		rawSize := lowered.C.Size()
		twoStep := mustBool(t, lowered.C)
		if permutedCases[name] {
			assertSameShape(t, fused.Obliv.C, twoStep, rng)
		} else {
			assertSameCircuit(t, "fused compile", fused.Obliv.C, "lower then BoolCtx", twoStep)
			assertSameCircuit(t, "fused compile", fused.Obliv.C, "reference", opt.BoolMultiPassRef(lowered.C))

			canon, err := query.Canonicalize(q, dcs)
			if err != nil {
				t.Fatalf("canonicalize: %v", err)
			}
			lowered.C = twoStep
			want := planSHA(t, canon, &core.Compiled{Query: fused.Query, DC: fused.DC, Rel: fused.Rel, RelOutput: fused.RelOutput, Obliv: lowered})
			if got := planSHA(t, canon, fused); got != want {
				t.Fatalf(".plan SHA-256 %x, lower then BoolCtx gives %x", got, want)
			}
		}

		rep := fused.Opt
		if rep.WordGatesBefore >= rawSize {
			t.Fatalf("the builder folded nothing: %d gates built, raw lowering %d", rep.WordGatesBefore, rawSize)
		}
		if rep.WordGatesAfter >= rep.WordGatesBefore {
			t.Fatalf("the sweep removed nothing: %d gates built, %d kept", rep.WordGatesBefore, rep.WordGatesAfter)
		}
	})
}

// TestFusedCompileIsMonotoneAndAFixpoint states, for the builder-time
// driver, the two properties opt.BoolCtx gets from its adoption rule and
// its one-pass argument. A served compile has no raw circuit to fall
// back to, so monotonicity is a property of the constructions and is
// held here: on every catalog case the fused circuit is no larger and no
// deeper than the NoOpt one. And one pass is the fixpoint (DESIGN.md,
// "Circuit optimizer"): optimizing the fused circuit again rebuilds it
// gate for gate, so BoolCtx finds nothing to adopt and hands its input
// back.
func TestFusedCompileIsMonotoneAndAFixpoint(t *testing.T) {
	ctx := context.Background()
	forEachCatalogCase(t, func(t *testing.T, _ string, q *query.Query, dcs query.DCSet) {
		raw := mustCompile(t, q, dcs, core.CompileOptions{NoOpt: true}).Obliv.C
		fused := mustCompile(t, q, dcs, core.CompileOptions{}).Obliv.C
		if fused.Size() > raw.Size() || fused.Depth() > raw.Depth() {
			t.Fatalf("fused compile: %d gates, depth %d; NoOpt: %d gates, depth %d",
				fused.Size(), fused.Depth(), raw.Size(), raw.Depth())
		}

		replayed, err := opt.Replay(ctx, fused)
		if err != nil {
			t.Fatal(err)
		}
		again, err := replayed.Prune(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCircuit(t, "optimized twice", again, "fused compile", fused)
		if got := mustBool(t, fused); got != fused {
			t.Fatalf("BoolCtx adopted a %d-gate, depth-%d circuit over its %d-gate, depth-%d fixpoint input",
				got.Size(), got.Depth(), fused.Size(), fused.Depth())
		}
	})
}

// TestBoolJudgesTheSweptCircuit pins the one case where the one-pass
// optimizer and the old loop differ, in the new one's favour: collapsing
// (x+5)-5... chains mints a constant that ends up dead, the unswept
// rebuild is therefore no smaller than its input, and the old loop threw
// it away before the sweep could make it win.
func TestBoolJudgesTheSweptCircuit(t *testing.T) {
	c := boolcircuit.New()
	x := c.Input()
	g1 := c.Add(x, c.Const(5))
	g2 := c.Add(g1, c.Const(-5))
	g3 := c.Not(g1)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	c.MarkOutput(g3)

	if ref := opt.BoolMultiPassRef(c); ref != c {
		t.Fatalf("reference was expected to keep its input, got %d gates", ref.Size())
	}
	got := mustBool(t, c)
	if got.Size() != 4 || got.Depth() != 2 {
		t.Fatalf("one pass: %d gates, depth %d; want 4 gates (x, 5, x+5, not), depth 2", got.Size(), got.Depth())
	}
	assertMatchesReference(t, c, rand.New(rand.NewSource(1)))
}

// wideSynthetic builds a circuit of about n live gates that neither
// folds nor shares, so the optimizer has to walk all of it.
func wideSynthetic(n int) *boolcircuit.Circuit {
	c := boolcircuit.New()
	c.Grow(n + 2)
	x, y := c.Input(), c.Input()
	acc := c.Add(x, y)
	for c.Size() < n {
		acc = c.Add(c.Mul(acc, x), c.Xor(acc, y))
	}
	c.MarkOutput(acc)
	return c
}

// TestBoolCancelMidOptimize cancels the context while the optimizer is
// inside a circuit that takes it far longer than the cancel delay, and
// expects the typed error promptly — the stage used to ignore ctx
// altogether.
func TestBoolCancelMidOptimize(t *testing.T) {
	c := wideSynthetic(1_000_000)
	for name, run := range map[string]func(context.Context) error{
		"BoolCtx": func(ctx context.Context) error { _, err := opt.BoolCtx(ctx, c); return err },
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var canceledAt time.Time
			timer := time.AfterFunc(10*time.Millisecond, func() {
				canceledAt = time.Now()
				cancel()
			})
			defer timer.Stop()
			err := run(ctx)
			returned := time.Now()
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("got %v, want guard.ErrCanceled (the circuit must outlast the cancel delay)", err)
			}
			if lag := returned.Sub(canceledAt); lag > 100*time.Millisecond {
				t.Fatalf("returned %v after the cancel, want < 100ms", lag)
			}
		})
	}
}

// TestBoolHonoursGateBudget: a guard.Budget gate cap on the context
// stops the rebuild with the typed budget error.
func TestBoolHonoursGateBudget(t *testing.T) {
	c := wideSynthetic(50_000)
	ctx := guard.WithBudget(context.Background(), &guard.Budget{MaxGates: 10_000})
	if _, err := opt.BoolCtx(ctx, c); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("got %v, want guard.ErrBudgetExceeded", err)
	}
}

// failedStage compiles q under ctx with a tracer attached and returns
// the compile error and the name of the stage span that carries it.
func failedStage(ctx context.Context, q *query.Query, dcs query.DCSet) (stage string, err error) {
	tracer := obs.NewTracer(1)
	_, err = core.CompileQueryCtx(obs.WithTracer(ctx, tracer), q, dcs)
	for _, root := range tracer.Last(1) {
		for _, child := range root.Children() {
			for _, a := range child.Attrs() {
				if a.Key == "error" {
					stage = child.Name
				}
			}
		}
	}
	return stage, err
}

// TestFusedCompileHonoursGateBudget is TestBoolHonoursGateBudget for the
// builder-time driver: a guard.Budget gate cap aborts a served compile in
// the middle of the lowering with the typed budget error. The cap
// charges the gates the rewriting builder built, not the raw count: a cap
// the raw lowering would exceed passes when the folded build fits it.
func TestFusedCompileHonoursGateBudget(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 8)
	fused := mustCompile(t, q, dcs, core.CompileOptions{})
	built := int64(fused.Opt.WordGatesBefore)

	ctx := guard.WithBudget(context.Background(), &guard.Budget{MaxGates: built / 2})
	stage, err := failedStage(ctx, q, dcs)
	if !errors.Is(err, guard.ErrBudgetExceeded) || stage != obs.StageBoolCirc {
		t.Fatalf("cap of %d on a %d-gate build: got %v in stage %q, want guard.ErrBudgetExceeded in %q",
			built/2, built, err, stage, obs.StageBoolCirc)
	}

	raw := mustCompile(t, q, dcs, core.CompileOptions{NoOpt: true})
	if int64(raw.Obliv.C.Size()) <= built {
		t.Fatalf("raw lowering has %d gates, the folded build %d: the cap below distinguishes nothing", raw.Obliv.C.Size(), built)
	}
	ctx = guard.WithBudget(context.Background(), &guard.Budget{MaxGates: built})
	if _, err := core.CompileQueryCtx(ctx, q, dcs); err != nil {
		t.Fatalf("cap of %d, exactly the folded build: %v", built, err)
	}
}

// cancelAtPoll is a context that reports itself canceled from its at-th
// Err call on (never, when at is 0) and counts the calls. Its Done is
// Background's, nil, so guard.Poll asks Err at every poll. The compile
// polls the same number of times on every run, so the last poll is a
// fixed position, though the sweep and the vm compile poll it from two
// goroutines.
type cancelAtPoll struct {
	context.Context
	calls atomic.Int64
	at    int64
}

func (c *cancelAtPoll) Err() error {
	if n := c.calls.Add(1); c.at > 0 && n >= c.at {
		return context.Canceled
	}
	return nil
}

// TestFusedCompileCancelMidSweep is TestBoolCancelMidOptimize for the
// builder-time driver: the sweep and, beside it, the vm compile are the
// last stages of a served compile that poll its context, so a context
// canceled at the compile's last poll must surface as the typed error
// out of the optimize or the vm-compile span.
func TestFusedCompileCancelMidSweep(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 8)
	count := &cancelAtPoll{Context: context.Background()}
	if _, err := core.CompileQueryCtx(count, q, dcs); err != nil {
		t.Fatal(err)
	}
	last := count.calls.Load()
	ctx := &cancelAtPoll{Context: context.Background(), at: last}
	stage, err := failedStage(ctx, q, dcs)
	if !errors.Is(err, guard.ErrCanceled) || stage != obs.StageOptimize && stage != obs.StageVMComp {
		t.Fatalf("canceled at poll %d of %d: got %v in stage %q, want guard.ErrCanceled in %q or %q",
			last, last, err, stage, obs.StageOptimize, obs.StageVMComp)
	}
}
