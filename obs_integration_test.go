package circuitql

import (
	"context"
	"testing"
	"time"

	"circuitql/internal/obs"
	"circuitql/internal/workload"
)

// TestCompileSpanChildrenCoverWallTime pins the span taxonomy's
// accounting guarantee: the compile span's direct children (lp-solve,
// proofseq, relcircuit, boolcircuit) must explain at least 90% of the
// compile's wall time, so a trace answers "where did the compile go"
// without a large unattributed residue.
func TestCompileSpanChildrenCoverWallTime(t *testing.T) {
	q, err := ParseQuery("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
	if err != nil {
		t.Fatal(err)
	}
	db := workload.TriangleDB(workload.TriangleUniform, 42, 12)
	dcs, err := DeriveConstraints(q, db)
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer(4)
	ctx := obs.WithTracer(context.Background(), tracer)
	cq, err := Compile(ctx, q, dcs)
	if err != nil {
		t.Fatal(err)
	}

	roots := tracer.Last(0)
	if len(roots) != 1 || roots[0].Name != obs.StageCompile {
		t.Fatalf("roots = %v, want one %q span", roots, obs.StageCompile)
	}
	root := roots[0]
	total := root.Duration()
	if total <= 0 {
		t.Fatal("compile span has no duration")
	}

	var covered time.Duration
	stages := map[string]bool{}
	for _, c := range root.Children() {
		covered += c.Duration()
		stages[c.Name] = true
	}
	for _, want := range []string{obs.StageLPSolve, obs.StageProofSeq, obs.StageRelCirc, obs.StageBoolCirc, obs.StageOptimize} {
		if !stages[want] {
			t.Errorf("compile span missing %q child (got %v)", want, stages)
		}
	}
	if ratio := float64(covered) / float64(total); ratio < 0.9 {
		t.Errorf("children cover %.1f%% of compile wall time (%v of %v), want >= 90%%\n%s",
			ratio*100, covered, total, obs.Format(root))
	}

	// The counters must be in the paper's currency: the boolcircuit child
	// reports what the lowering produced, and the optimize child accounts
	// for the shrink down to the final circuit of Stats().
	st := cq.Stats()
	var boolGates, optBefore, optAfter int64
	for _, c := range root.Children() {
		for _, a := range c.Attrs() {
			switch {
			case c.Name == obs.StageBoolCirc && a.Key == obs.CounterGates:
				boolGates = a.Int
			case c.Name == obs.StageOptimize && a.Key == obs.CounterOptGatesBefore:
				optBefore = a.Int
			case c.Name == obs.StageOptimize && a.Key == obs.CounterOptGatesAfter:
				optAfter = a.Int
			}
		}
	}
	if boolGates != optBefore {
		t.Errorf("boolcircuit span gates = %d, optimize span gates_before = %d", boolGates, optBefore)
	}
	if optAfter != int64(st.Gates) {
		t.Errorf("optimize span gates_after = %d, Stats().Gates = %d", optAfter, st.Gates)
	}
	if boolGates < optAfter {
		t.Errorf("lowering reported %d gates, fewer than the optimized circuit's %d", boolGates, optAfter)
	}

	// Evaluation spans attach as fresh roots under the same tracer.
	if _, err := cq.Evaluate(ctx, db); err != nil {
		t.Fatal(err)
	}
	roots = tracer.Last(0)
	if roots[0].Name != obs.StageBoolEval {
		t.Fatalf("latest root = %q, want %q", roots[0].Name, obs.StageBoolEval)
	}
}
