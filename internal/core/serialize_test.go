package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"circuitql/internal/panda"
	"circuitql/internal/query"
)

func TestObliviousArtifactRoundTrip(t *testing.T) {
	q := query.Triangle()
	dcs := query.Cardinalities(q, 8)
	res, err := panda.CompileFCQCtx(context.Background(), q, dcs)
	if err != nil {
		t.Fatal(err)
	}
	obl, err := CompileObliviousCtx(context.Background(), res.Circuit)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := obl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("artifact size: %d bytes for %d gates", buf.Len(), obl.C.Size())

	loaded, err := ReadObliviousCircuit(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.C.Size() != obl.C.Size() || loaded.C.Depth() != obl.C.Depth() {
		t.Fatal("circuit shape changed")
	}
	if len(loaded.Inputs) != len(obl.Inputs) || len(loaded.Outputs) != len(obl.Outputs) {
		t.Fatal("metadata lost")
	}

	// The loaded artifact evaluates identically.
	rng := rand.New(rand.NewSource(19))
	db := query.Database{
		"R": randomBinary(rng, 8, 5),
		"S": randomBinary(rng, 8, 5),
		"T": randomBinary(rng, 8, 5),
	}
	pdb, err := panda.PrepareDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := obl.EvaluateCtx(context.Background(), pdb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.EvaluateCtx(context.Background(), pdb)
	if err != nil {
		t.Fatal(err)
	}
	for gate, rel := range want {
		if !got[gate].Equal(rel) {
			t.Fatalf("gate %d differs after round trip", gate)
		}
	}
}

func TestReadObliviousCircuitRejectsCorrupt(t *testing.T) {
	cases := []string{
		"",
		"NOPE           2\n{}",
		"CQOC          2\n{}", // header ok but no circuit
		"CQOC         -1\n",
	}
	for i, s := range cases {
		if _, err := ReadObliviousCircuit(strings.NewReader(s)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
