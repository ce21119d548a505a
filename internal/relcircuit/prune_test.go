package relcircuit

import (
	"context"
	"testing"

	"circuitql/internal/expr"
	"circuitql/internal/relation"
)

func TestPruneDropsDeadGates(t *testing.T) {
	c := New()
	r := c.Input("R", []string{"A", "B"}, Card(3))
	s := c.Input("S", []string{"B", "C"}, Card(3))
	dead1 := c.Select(r, expr.Const(1), Card(3))
	dead2 := c.Project(dead1, []string{"A"}, Card(3))
	_ = dead2
	live := c.Join(r, s, Card(9))
	c.MarkOutput(live)

	pruned, mapping := c.Prune()
	if pruned.Size() != 3 { // two inputs + the join
		t.Fatalf("pruned size = %d, want 3", pruned.Size())
	}
	if _, ok := mapping[dead1]; ok {
		t.Fatal("dead gate survived in mapping")
	}
	nj, ok := mapping[live]
	if !ok {
		t.Fatal("live gate missing from mapping")
	}
	if pruned.Outputs[0] != nj {
		t.Fatal("output not remapped")
	}

	// Pruned circuit evaluates identically.
	db := map[string]*relation.Relation{
		"R": relation.FromTuples([]string{"A", "B"}, relation.Tuple{1, 2}),
		"S": relation.FromTuples([]string{"B", "C"}, relation.Tuple{2, 3}),
	}
	want, err := c.EvaluateCtx(context.Background(), db, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pruned.EvaluateCtx(context.Background(), db, true)
	if err != nil {
		t.Fatal(err)
	}
	if !got[nj].Equal(want[live]) {
		t.Fatal("pruned circuit output differs")
	}
}

func TestPruneKeepsAllInputs(t *testing.T) {
	// Inputs are part of the circuit contract even when unused.
	c := New()
	c.Input("Unused", []string{"X"}, Card(1))
	used := c.Input("Used", []string{"Y"}, Card(1))
	c.MarkOutput(used)
	pruned, _ := c.Prune()
	if pruned.Size() != 2 {
		t.Fatalf("pruned size = %d, want both inputs kept", pruned.Size())
	}
}
