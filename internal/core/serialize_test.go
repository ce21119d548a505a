package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
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

	data, err := obl.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("artifact size: %d bytes for %d gates", len(data), obl.C.Size())

	loaded, err := ReadObliviousCircuit(bytes.NewReader(data))
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

// TestReadObliviousCircuitHeaderLengthIsNotAnAllocation: a header length
// that overstates the bytes left (200 MB here, under the 256 MiB cap)
// fails on the bytes that are there, without allocating what it
// claims. A plan file's version-1 body reaches this reader with such a
// length one mutated digit away.
func TestReadObliviousCircuitHeaderLengthIsNotAnAllocation(t *testing.T) {
	src := "CQOC  200000000\n{}"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadObliviousCircuit(strings.NewReader(src)); err == nil {
		t.Fatal("a truncated header was accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a %d-byte artifact allocated %d bytes", len(src), got)
	}
}
