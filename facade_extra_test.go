package circuitql

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

func compiledTriangle(t *testing.T) (*CompiledQuery, *Query, Database) {
	t.Helper()
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	db := workload.TriangleDB(workload.TriangleUniform, 5, 8)
	dcs, err := DeriveConstraints(q, db)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Compile(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	return cq, q, db
}

func TestSecureCost(t *testing.T) {
	cq, _, _ := compiledTriangle(t)
	sc := cq.SecureCost(32, 128)
	if sc.BitGates <= 0 || sc.NonLinear <= 0 || sc.GarbledBytes <= 0 || sc.Rounds <= 0 {
		t.Fatalf("SecureCost = %+v", sc)
	}
	if sc.GarbledBytes != sc.NonLinear*32 {
		t.Fatalf("garbled pricing wrong: %d vs %d nonlinear", sc.GarbledBytes, sc.NonLinear)
	}
	// Narrower words cost less.
	if cq.SecureCost(8, 128).BitGates >= sc.BitGates {
		t.Fatal("narrow words should be cheaper")
	}
	if sc.GMWTriples != sc.NonLinear {
		t.Fatal("GMW triples should equal nonlinear gates")
	}
}

func TestArtifactRoundTripViaFacade(t *testing.T) {
	cq, _, db := compiledTriangle(t)
	art := roundTrip(t, cq)
	if art.Gates() != cq.Stats().Gates || art.Depth() != cq.Stats().Depth {
		t.Fatal("artifact shape mismatch")
	}
	got, err := art.Evaluate(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cq.Evaluate(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("loaded artifact does not reproduce the query result")
	}
}

// A plan file that fails its checksum is ErrInvalidInput, not a plan.
func TestLoadArtifactRejectsTamperedFile(t *testing.T) {
	cq, _, _ := compiledTriangle(t)
	var buf bytes.Buffer
	if _, err := cq.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 1
	if _, err := LoadArtifact(context.Background(), bytes.NewReader(data)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("err = %v, want ErrInvalidInput", err)
	}
}

// LoadArtifact polls its ctx before it reads the file, so a canceled
// one fails the load with ErrCanceled.
func TestLoadArtifactHonorsCancellation(t *testing.T) {
	cq, _, _ := compiledTriangle(t)
	var buf bytes.Buffer
	if _, err := cq.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadArtifact(ctx, &buf); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// Concurrent first evaluations of one fresh CompiledQuery share its vm
// program; every one of them must answer RAM's Q(D). Run under -race.
func TestConcurrentEvaluateOnFreshPlan(t *testing.T) {
	cq, q, db := compiledTriangle(t)
	want, err := EvaluateRAM(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := cq.Evaluate(context.Background(), db)
			if err == nil && !got.Equal(want) {
				err = errors.New("answer differs from RAM")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("evaluation %d: %v", i, err)
		}
	}
}

// TestFirstEvaluateMeetsADeadlineShorterThanTheVMCompile: the vm
// program is compiled with the plan, so the first Evaluate of a fresh
// CompiledQuery does evaluation work only, and a deadline that a vm
// compile would miss but an evaluation meets is served.
func TestFirstEvaluateMeetsADeadlineShorterThanTheVMCompile(t *testing.T) {
	probe, _, db := compiledTriangle(t)
	ctx := context.Background()
	fastest := func(runs int, f func() error) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < runs; i++ {
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	compile := fastest(3, func() error { _, err := vm.Compile(ctx, probe.inner.Obliv.C); return err })
	eval := fastest(5, func() error { _, err := probe.Evaluate(ctx, db); return err })
	if compile < 8*eval {
		t.Skipf("a vm compile (%v) is not well above an evaluation (%v) here", compile, eval)
	}
	deadline := compile / 2
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		cq, _, _ := compiledTriangle(t)
		dctx, cancel := context.WithTimeout(ctx, deadline)
		_, err = cq.Evaluate(dctx, db)
		cancel()
		if err == nil {
			return
		}
	}
	t.Fatalf("first Evaluate under a %v deadline (vm compile %v, evaluation %v): %v", deadline, compile, eval, err)
}

func TestWriteDotFacade(t *testing.T) {
	cq, _, _ := compiledTriangle(t)
	var sb strings.Builder
	if err := cq.WriteDot(&sb, "triangle"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph \"triangle\"") {
		t.Fatal("DOT output malformed")
	}
}

func TestGateListNonEmpty(t *testing.T) {
	cq, _, _ := compiledTriangle(t)
	gl := cq.GateList()
	if len(gl) == 0 || !strings.Contains(gl[0], "input") {
		t.Fatalf("GateList = %v", gl[:min(3, len(gl))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBitLevelFacade(t *testing.T) {
	q, err := ParseQuery("Q(A,B) :- R(A,B)")
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Compile(context.Background(), q, UniformCardinalities(q, 3))
	if err != nil {
		t.Fatal(err)
	}
	gates, depth, err := cq.BitLevel(context.Background(), 64)
	if err != nil {
		t.Fatal(err)
	}
	wordGates := cq.Stats().Gates
	if gates <= wordGates || depth <= 0 {
		t.Fatalf("bit level = %d gates depth %d (word %d)", gates, depth, wordGates)
	}
	if _, _, err := cq.BitLevel(context.Background(), 0); err == nil {
		t.Fatal("width 0 accepted")
	}
}
