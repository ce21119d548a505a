package store

import (
	"bytes"
	"context"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// compileCatalog compiles a catalog query against constraints derived
// from its standard workload database, returning everything a store
// test needs: the canonical pair, the compiled plan, and the database.
func compileCatalog(t testing.TB, name string) (*query.Canonical, *core.Compiled, query.Database) {
	t.Helper()
	var q *query.Query
	for _, ent := range query.Catalog() {
		if ent.Name == name {
			q = ent.Query
		}
	}
	if q == nil {
		t.Fatalf("no catalog query %q", name)
	}
	db := workload.ForQuery(q, 1, 6)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatalf("DeriveDC(%s): %v", name, err)
	}
	canon, err := query.Canonicalize(q, dcs)
	if err != nil {
		t.Fatalf("Canonicalize(%s): %v", name, err)
	}
	compiled, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
	if err != nil {
		t.Fatalf("CompileQuery(%s): %v", name, err)
	}
	return canon, compiled, db
}

// TestPlanRoundTrip: FromCompiled → Encode → Decode → Compiled
// reproduces the original plan — same metadata, and the reassembled
// plan evaluates the canonical workload to the same answer.
func TestPlanRoundTrip(t *testing.T) {
	for _, name := range []string{"triangle", "path3", "cycle4"} {
		canon, compiled, db := compileCatalog(t, name)
		a := FromCompiled(canon, compiled)
		if a.FP != canon.FP {
			t.Fatalf("%s: artifact fingerprint %s, want %s", name, a.FP.Short(), canon.FP.Short())
		}

		data, err := EncodePlan(a)
		if err != nil {
			t.Fatalf("%s: EncodePlan: %v", name, err)
		}
		data2, err := EncodePlan(a)
		if err != nil {
			t.Fatalf("%s: second EncodePlan: %v", name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("%s: encoding is not deterministic", name)
		}

		back, err := DecodePlan(data)
		if err != nil {
			t.Fatalf("%s: DecodePlan: %v", name, err)
		}
		if back.FP != a.FP || back.QueryText != a.QueryText || back.DCText != a.DCText ||
			back.RelOutput != a.RelOutput || back.Gates != a.Gates || back.WideLevel != a.WideLevel {
			t.Fatalf("%s: decoded metadata differs: %+v vs %+v", name, back, a)
		}

		// The canonical pair the engine compiles must round-trip through
		// text to the same fingerprint the artifact is stored under.
		recanon, err := back.Reparse()
		if err != nil {
			t.Fatalf("%s: Reparse: %v", name, err)
		}
		if recanon.FP != canon.FP {
			t.Fatalf("%s: reparsed fingerprint %s, want %s", name, recanon.FP.Short(), canon.FP.Short())
		}

		// A warm-loaded plan (no relational layer) must evaluate the
		// workload identically via its oblivious circuit. The database
		// the original was compiled against canonicalizes through
		// canon.VarMap-independent atom names, so it feeds both.
		warm, _, err := back.Compiled()
		if err != nil {
			t.Fatalf("%s: Compiled: %v", name, err)
		}
		if warm.Rel != nil {
			t.Fatalf("%s: warm plan unexpectedly has a relational layer", name)
		}
		wantOut, err := compiled.EvaluateObliviousCtx(context.Background(), db)
		if err != nil {
			t.Fatalf("%s: original EvaluateOblivious: %v", name, err)
		}
		gotOut, err := warm.EvaluateObliviousCtx(context.Background(), db)
		if err != nil {
			t.Fatalf("%s: warm EvaluateOblivious: %v", name, err)
		}
		if !gotOut.Equal(wantOut) {
			t.Fatalf("%s: warm plan evaluates differently: %d rows vs %d", name, gotOut.Len(), wantOut.Len())
		}
	}
}

// TestCanonicalTextFixedPoint: for every catalog query, parsing the
// canonical text (query and constraints) and re-canonicalizing
// reproduces the same fingerprint. The store's integrity check
// (Reparse) and its key scheme both stand on this invariant.
func TestCanonicalTextFixedPoint(t *testing.T) {
	for _, ent := range query.Catalog() {
		db := workload.ForQuery(ent.Query, 1, 5)
		dcs, err := query.DeriveDC(ent.Query, db)
		if err != nil {
			t.Fatalf("DeriveDC(%s): %v", ent.Name, err)
		}
		canon, err := query.Canonicalize(ent.Query, dcs)
		if err != nil {
			t.Fatalf("Canonicalize(%s): %v", ent.Name, err)
		}
		a := &PlanArtifact{
			FP:        canon.FP,
			QueryText: canon.Query.String(),
			DCText:    query.FormatDC(canon.Query, canon.DCs),
		}
		recanon, err := a.Reparse()
		if err != nil {
			t.Fatalf("%s: canonical text does not reparse: %v", ent.Name, err)
		}
		if recanon.FP != canon.FP {
			t.Fatalf("%s: canonical text is not a fixed point: %s vs %s",
				ent.Name, recanon.FP.Short(), canon.FP.Short())
		}
	}
}

// TestDecodeRejectsCorruption: any single flipped byte fails the
// checksum (or an earlier structural check), any truncation errors out,
// and none of it panics.
func TestDecodeRejectsCorruption(t *testing.T) {
	canon, compiled, _ := compileCatalog(t, "triangle")
	data, err := EncodePlan(FromCompiled(canon, compiled))
	if err != nil {
		t.Fatalf("EncodePlan: %v", err)
	}

	// Sample offsets across the artifact (every byte would be O(n²)).
	step := len(data)/257 + 1
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if _, err := DecodePlan(mut); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", off, len(data))
		}
	}
	for n := 0; n < len(data); n += step {
		if _, err := DecodePlan(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(data))
		}
	}
	if _, err := DecodePlan(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}
