package circuitql

import (
	"bytes"
	"context"
	"strings"
	"testing"

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
	var buf bytes.Buffer
	if _, err := cq.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if art.Gates() != cq.Stats().Gates || art.Depth() != cq.Stats().Depth {
		t.Fatal("artifact shape mismatch")
	}
	pdb, err := cq.PrepareInputs(db)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := art.Evaluate(context.Background(), pdb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cq.Evaluate(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rel := range outs {
		if rel.Equal(want) {
			found = true
		}
	}
	if !found {
		t.Fatal("loaded artifact does not reproduce the query result")
	}
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
