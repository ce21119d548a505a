package circuitql

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"circuitql/internal/faultinject"
	"circuitql/internal/guard"
	"circuitql/internal/workload"
)

func triangleSetup(t *testing.T) (*Query, DCSet, Database, *CompiledQuery) {
	t.Helper()
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	db := workload.TriangleDB(workload.TriangleUniform, 42, 12)
	dcs, err := DeriveConstraints(q, db)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Compile(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	return q, dcs, db, cq
}

// pathologicalQuery is a 5-cycle whose PANDA-C compilation takes
// minutes: the Shannon-flow LPs have hundreds of submodularity rows.
// Only usable under a budget or deadline.
func pathologicalQuery(t *testing.T) (*Query, DCSet) {
	t.Helper()
	q, err := ParseQuery("Q(A,B,C,D,E) :- R1(A,B), R2(B,C), R3(C,D), R4(D,E), R5(E,A)")
	if err != nil {
		t.Fatal(err)
	}
	return q, UniformCardinalities(q, 64)
}

func TestCompileLPPivotBudgetTrips(t *testing.T) {
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	b := &Budget{MaxLPPivots: 3}
	ctx := WithBudget(context.Background(), b)
	_, err = Compile(ctx, q, UniformCardinalities(q, 1024))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if b.Pivots() <= 3 {
		t.Fatalf("Pivots() = %d, want > 3", b.Pivots())
	}
}

func TestCompileGateBudgetTrips(t *testing.T) {
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithBudget(context.Background(), &Budget{MaxGates: 50})
	_, err = Compile(ctx, q, UniformCardinalities(q, 1024))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestCompileDeadlineReturnsTypedError(t *testing.T) {
	q, dcs := pathologicalQuery(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Compile(ctx, q, dcs)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded (deadline is a budget)", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("deadline expiry must not classify as explicit cancellation")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("compile held the deadline hostage for %v", elapsed)
	}
}

func TestCompileCancellationReturnsWithin100ms(t *testing.T) {
	q, dcs := pathologicalQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Compile(ctx, q, dcs)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the compile get into the LPs
	cancel()
	canceledAt := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if lag := time.Since(canceledAt); lag > 100*time.Millisecond {
			t.Fatalf("cancellation honored after %v, want ≤ 100ms", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compile ignored cancellation")
	}
}

func TestEvaluateResilientServesObliviousWhenHealthy(t *testing.T) {
	_, _, db, cq := triangleSetup(t)
	out, report, err := cq.EvaluateResilient(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if report.Served != TierOblivious {
		t.Fatalf("served = %q, want %q (report: %s)", report.Served, TierOblivious, report)
	}
	if len(report.Attempts) != 1 || report.Attempts[0].Err != nil {
		t.Fatalf("attempts = %+v", report.Attempts)
	}
	want, err := EvaluateRAM(context.Background(), cq.inner.Query, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Fatal("resilient result differs from reference")
	}
}

func TestEvaluateResilientDegradesToRAM(t *testing.T) {
	q, _, db, cq := triangleSetup(t)
	in := faultinject.New()
	in.FailAt(faultinject.SiteWordGate, 1, nil)
	ctx := faultinject.WithInjector(context.Background(), in)
	out, report, err := cq.EvaluateResilient(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if report.Served != TierRAM {
		t.Fatalf("served = %q, want %q (report: %s)", report.Served, TierRAM, report)
	}
	if len(report.Attempts) != 2 || report.Attempts[0].Tier != TierOblivious || report.Attempts[1].Tier != TierRAM {
		t.Fatalf("attempts = %+v, want [oblivious ram]", report.Attempts)
	}
	if !errors.Is(report.Attempts[0].Err, faultinject.ErrInjected) {
		t.Fatalf("oblivious attempt error = %v, want injected", report.Attempts[0].Err)
	}
	want, err := EvaluateRAM(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Fatal("RAM tier result differs from reference")
	}
}

func TestEvaluateResilientAllTiersFail(t *testing.T) {
	_, _, db, cq := triangleSetup(t)
	in := faultinject.New()
	in.FailAt(faultinject.SiteWordGate, 1, nil)
	in.FailAt(faultinject.SiteRAMJoin, 1, nil)
	ctx := faultinject.WithInjector(context.Background(), in)
	_, report, err := cq.EvaluateResilient(ctx, db)
	if err == nil {
		t.Fatal("expected failure when every tier is faulted")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected cause", err)
	}
	if len(report.Attempts) != 2 || report.Served != "" {
		t.Fatalf("report = %+v", report)
	}
}

func TestEvaluateResilientContainsPanics(t *testing.T) {
	q, _, db, cq := triangleSetup(t)
	in := faultinject.New()
	in.PanicAt(faultinject.SiteWordGate, 1, "injected chaos")
	ctx := faultinject.WithInjector(context.Background(), in)
	out, report, err := cq.EvaluateResilient(ctx, db)
	if err != nil {
		t.Fatalf("panic escaped containment: %v", err)
	}
	if report.Served != TierRAM {
		t.Fatalf("served = %q, want %q", report.Served, TierRAM)
	}
	oblErr := report.Attempts[0].Err
	if !errors.Is(oblErr, ErrInternal) {
		t.Fatalf("oblivious attempt error = %v, want ErrInternal", oblErr)
	}
	var ie *guard.InternalError
	if !errors.As(oblErr, &ie) || ie.Payload != "injected chaos" {
		t.Fatalf("panic payload not preserved: %v", oblErr)
	}
	want, err := EvaluateRAM(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Fatal("result differs from reference after panic containment")
	}
}

func TestEvaluateValidatesDatabaseUpfront(t *testing.T) {
	q, _, db, cq := triangleSetup(t)

	// Missing relation.
	broken := Database{}
	for k, v := range db {
		broken[k] = v
	}
	delete(broken, "T")
	if _, err := cq.Evaluate(context.Background(), broken); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("missing relation: err = %v, want ErrInvalidInput", err)
	}

	// Arity mismatch.
	bad := Database{}
	for k, v := range db {
		bad[k] = v
	}
	bad["T"] = NewRelation("A")
	if _, err := cq.Evaluate(context.Background(), bad); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("arity mismatch: err = %v, want ErrInvalidInput", err)
	}

	// Cardinality overrun against the compiled constraint set.
	big := Database{}
	for k, v := range db {
		big[k] = v
	}
	over := NewRelation("A", "B")
	for i := int64(0); i < 1000; i++ {
		over.Insert(i, i+1)
	}
	big["R"] = over
	if _, err := cq.Evaluate(context.Background(), big); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("cardinality overrun: err = %v, want ErrInvalidInput", err)
	}

	// The RAM reference validates the query/database pairing too.
	if _, err := EvaluateRAM(context.Background(), q, bad); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("EvaluateRAM arity mismatch: err = %v, want ErrInvalidInput", err)
	}
}

func TestEvaluateRowBudgetTrips(t *testing.T) {
	_, _, db, cq := triangleSetup(t)
	ctx := WithBudget(context.Background(), &Budget{MaxRows: 1})
	_, err := cq.EvaluateRelational(ctx, db, false)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// entryPoint is one blocking facade call, closed over fixtures built
// once, so the contract tests below are one loop each.
type entryPoint struct {
	name string
	// evaluates marks the entry points that walk gates or joins — the
	// ones faultinject can reach through the context.
	evaluates bool
	call      func(ctx context.Context) error
}

// blockingEntryPoints is every facade entry point that takes a context:
// the compile side runs on pathologicalQuery wherever the work starts
// from a query (minutes if the context is ignored), the evaluate side on
// small compiled fixtures.
func blockingEntryPoints(t *testing.T) []entryPoint {
	t.Helper()
	bg := context.Background()
	q, _, db, cq := triangleSetup(t)
	hardQ, hardDCs := pathologicalQuery(t)

	var buf bytes.Buffer
	if _, err := cq.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := cq.PrepareInputs(db)
	if err != nil {
		t.Fatal(err)
	}

	boolQ, err := ParseQuery("Q() :- R(A,B), S(B,A)")
	if err != nil {
		t.Fatal(err)
	}
	boolDB := Database{"R": workload.UniformBinary(3, 6, 6), "S": workload.UniformBinary(4, 6, 6)}
	bq, err := CompileBoolean(bg, boolQ, UniformCardinalities(boolQ, 6))
	if err != nil {
		t.Fatal(err)
	}

	pathQ, err := ParseQuery("Q(A,C) :- R(A,B), S(B,C)")
	if err != nil {
		t.Fatal(err)
	}
	pathDB := Database{"R": workload.UniformBinary(3, 15, 8), "S": workload.UniformBinary(4, 15, 8)}
	pathDCs, err := DeriveConstraints(pathQ, pathDB)
	if err != nil {
		t.Fatal(err)
	}
	osq, err := OutputSensitive(bg, pathQ, pathDCs)
	if err != nil {
		t.Fatal(err)
	}

	return []entryPoint{
		{"Compile", false, func(ctx context.Context) error { _, err := Compile(ctx, hardQ, hardDCs); return err }},
		{"CompileOpts", false, func(ctx context.Context) error {
			_, err := CompileOpts(ctx, hardQ, hardDCs, CompileOptions{NoOpt: true})
			return err
		}},
		{"CompileBoolean", false, func(ctx context.Context) error {
			boolHard := *hardQ
			boolHard.Free = 0
			_, err := CompileBoolean(ctx, &boolHard, hardDCs)
			return err
		}},
		{"OutputSensitive", false, func(ctx context.Context) error { _, err := OutputSensitive(ctx, hardQ, hardDCs); return err }},
		{"ComputeWidths", false, func(ctx context.Context) error { _, err := ComputeWidths(ctx, hardQ, hardDCs); return err }},
		{"PolymatroidBound", false, func(ctx context.Context) error { _, err := PolymatroidBound(ctx, hardQ, hardDCs); return err }},
		{"OutputSensitiveQuery.EvalCircuit", false, func(ctx context.Context) error { _, err := osq.EvalCircuit(ctx, 64); return err }},
		{"CompiledQuery.BitLevel", false, func(ctx context.Context) error { _, _, err := cq.BitLevel(ctx, 64); return err }},
		{"CompiledQuery.CompileVM", false, func(ctx context.Context) error { _, err := cq.CompileVM(ctx); return err }},

		{"EvaluateRAM", true, func(ctx context.Context) error { _, err := EvaluateRAM(ctx, q, db); return err }},
		{"CompiledQuery.Evaluate", true, func(ctx context.Context) error { _, err := cq.Evaluate(ctx, db); return err }},
		{"CompiledQuery.EvaluateRelational", true, func(ctx context.Context) error {
			_, err := cq.EvaluateRelational(ctx, db, false)
			return err
		}},
		{"CompiledQuery.EvaluateResilient", true, func(ctx context.Context) error {
			_, _, err := cq.EvaluateResilient(ctx, db)
			return err
		}},
		{"Artifact.Evaluate", true, func(ctx context.Context) error { _, err := art.Evaluate(ctx, pdb); return err }},
		{"BooleanQuery.Decide", true, func(ctx context.Context) error { _, err := bq.Decide(ctx, boolDB); return err }},
		{"OutputSensitiveQuery.Count", true, func(ctx context.Context) error { _, err := osq.Count(ctx, pathDB); return err }},
		{"OutputSensitiveQuery.Evaluate", true, func(ctx context.Context) error { _, err := osq.Evaluate(ctx, pathDB); return err }},
	}
}

// An already-canceled context comes back as ErrCanceled from every
// blocking entry point before the work is done: within the 100 ms bar of
// TestCompileCancellationReturnsWithin100ms, on inputs whose compile
// side takes seconds to minutes when the context is ignored.
func TestEveryEntryPointHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ep := range blockingEntryPoints(t) {
		t.Run(ep.name, func(t *testing.T) {
			start := time.Now()
			err := ep.call(ctx)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if took := time.Since(start); took > 100*time.Millisecond {
				t.Fatalf("returned after %v, want ≤ 100ms", took)
			}
		})
	}
}

// A panic inside a gate or a join never crosses the API boundary: every
// evaluating entry point returns it as ErrInternal with the payload
// preserved. Each evaluator's site is armed, so the entry point fails
// whichever evaluator it runs (EvaluateResilient walks both of its
// tiers and reports the last).
func TestEveryEvaluatingEntryPointContainsPanics(t *testing.T) {
	for _, ep := range blockingEntryPoints(t) {
		if !ep.evaluates {
			continue
		}
		t.Run(ep.name, func(t *testing.T) {
			in := faultinject.New()
			for _, site := range []faultinject.Site{faultinject.SiteWordGate, faultinject.SiteRelGate, faultinject.SiteRAMJoin} {
				in.PanicAt(site, 1, "injected chaos")
			}
			err := ep.call(faultinject.WithInjector(context.Background(), in))
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
			var ie *guard.InternalError
			if !errors.As(err, &ie) || ie.Payload != "injected chaos" {
				t.Fatalf("panic payload not preserved: %v", err)
			}
		})
	}
}
