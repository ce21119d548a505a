package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/vm"
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
			back.RelOutput != a.RelOutput || back.Gates != a.Gates || back.Depth != a.Depth {
			t.Fatalf("%s: decoded metadata differs: %+v vs %+v", name, back, a)
		}

		// The canonical pair the engine compiles must round-trip through
		// text to the same fingerprint the artifact is stored under.
		_, recanon, err := back.Compiled()
		if err != nil {
			t.Fatalf("%s: Compiled: %v", name, err)
		}
		if recanon.FP != canon.FP {
			t.Fatalf("%s: reparsed fingerprint %s, want %s", name, recanon.FP.Short(), canon.FP.Short())
		}

		// A warm-loaded plan (no circuit layer) carries the program the
		// compile built, byte for byte, and runs the workload to the
		// interpreter's answer on the compiled circuit. The database the
		// original was compiled against canonicalizes through
		// canon.VarMap-independent atom names, so it feeds both.
		warm, _, err := back.Compiled()
		if err != nil {
			t.Fatalf("%s: Compiled: %v", name, err)
		}
		if warm.Rel != nil || warm.Obliv.C != nil {
			t.Fatalf("%s: warm plan unexpectedly has a circuit layer", name)
		}
		if !bytes.Equal(warm.Prog.Append(nil), compiled.Prog.Append(nil)) {
			t.Fatalf("%s: the decoded program differs from the compiled one", name)
		}
		wantOut, err := compiled.EvaluateObliviousCtx(context.Background(), db)
		if err != nil {
			t.Fatalf("%s: original EvaluateOblivious: %v", name, err)
		}
		gotOut, err := runProgram(warm, db)
		if err != nil {
			t.Fatalf("%s: warm program: %v", name, err)
		}
		if !gotOut.Equal(wantOut) {
			t.Fatalf("%s: warm plan evaluates differently: %d rows vs %d", name, gotOut.Len(), wantOut.Len())
		}
	}
}

// runProgram evaluates db on a plan's vm program as a batch of one.
func runProgram(c *core.Compiled, db query.Database) (*relation.Relation, error) {
	in, err := c.PackOblivious(db)
	if err != nil {
		return nil, err
	}
	out, err := c.Prog.EvalBatch(context.Background(), [][]vm.Word{in})
	if err != nil {
		return nil, err
	}
	return c.DecodeOblivious(out[0])
}

// TestCanonicalTextFixedPoint: for every catalog query, parsing the
// canonical text (query and constraints) and re-canonicalizing
// reproduces the same fingerprint. The store's integrity check
// (PlanArtifact.Compiled) and its key scheme both stand on this invariant.
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
		_, recanon, err := a.Compiled()
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

// TestDecodeRejectsOutputOffsetsPastTheCircuit: a plan whose output
// specs point past the program's outputs — re-encoded, so the checksum
// is good, as it is on a hand-edited file — must fail DecodePlan rather
// than slice out of range when it is evaluated.
func TestDecodeRejectsOutputOffsetsPastTheCircuit(t *testing.T) {
	canon, compiled, _ := compileCatalog(t, "triangle")
	data := editedPlan(t, FromCompiled(canon, compiled), shiftOutputs)
	if _, err := DecodePlan(data); err == nil {
		t.Fatal("DecodePlan accepted output specs that start past the circuit's outputs")
	}
}

// TestDecodeRejectsUnsoundInputSpecs: input specs that keep the total
// input width the program has but cannot be packed must fail DecodePlan.
// A repeated attribute keeps every spec's width; capacities that wrap
// the width sum back to the program's input count keep the total.
func TestDecodeRejectsUnsoundInputSpecs(t *testing.T) {
	canon, compiled, _ := compileCatalog(t, "triangle")
	art := FromCompiled(canon, compiled)
	if n := len(art.Obliv.Inputs); n != 3 {
		t.Fatalf("triangle plan has %d input specs, the wrap below needs 3", n)
	}
	for name, edit := range map[string]func(*core.ObliviousCircuit){
		"repeated attribute": repeatInputAttribute,
		"wrapping capacities": func(oc *core.ObliviousCircuit) {
			// Widths are capacity·3 here. The deltas sum to the int
			// range, so the widths they add wrap to 0.
			quarter := math.MaxInt/2 + 1 // a quarter of the int range
			for i, d := range []int{quarter, quarter, math.MinInt} {
				oc.Inputs[i].Capacity += d
			}
			wires := 0
			for _, in := range oc.Inputs {
				wires += in.Capacity * (1 + len(in.Schema))
			}
			if wires != art.Prog.NumInputs() {
				t.Fatalf("edited widths sum to %d, the program has %d inputs", wires, art.Prog.NumInputs())
			}
		},
	} {
		if _, err := DecodePlan(editedPlan(t, art, edit)); err == nil {
			t.Errorf("%s: DecodePlan accepted the input specs", name)
		}
	}
}

// TestReadPlanStopsAtTheEnvelope: ReadPlan decodes what DecodePlan
// does, and refuses a stream that runs on past the envelope it declares
// (here, forever) or declares more than maxPlanBytes.
func TestReadPlanStopsAtTheEnvelope(t *testing.T) {
	canon, compiled, _ := compileCatalog(t, "triangle")
	data, err := EncodePlan(FromCompiled(canon, compiled))
	if err != nil {
		t.Fatalf("EncodePlan: %v", err)
	}
	a, err := ReadPlan(bytes.NewReader(data))
	if err != nil || a.FP != canon.FP {
		t.Fatalf("ReadPlan of a valid plan: %v", err)
	}
	huge := binary.AppendUvarint([]byte(planMagic), maxPlanBytes+1)
	for name, r := range map[string]io.Reader{
		"trailing byte":    io.MultiReader(bytes.NewReader(data), bytes.NewReader([]byte{0})),
		"endless stream":   io.MultiReader(bytes.NewReader(data), endless{}),
		"endless garbage":  endless{},
		"oversized header": io.MultiReader(bytes.NewReader(huge), endless{}),
		"truncated":        bytes.NewReader(data[:len(data)-1]),
		"empty":            bytes.NewReader(nil),
	} {
		if _, err := ReadPlan(r); err == nil {
			t.Errorf("%s: ReadPlan accepted it", name)
		}
	}
}

// endless is a reader of zero bytes that never ends.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// editedPlan encodes a with its specs passed through
// edit, leaving a itself untouched.
func editedPlan(t testing.TB, a *PlanArtifact, edit func(*core.ObliviousCircuit)) []byte {
	t.Helper()
	obliv := *a.Obliv
	obliv.Inputs = append([]core.InputSpec(nil), obliv.Inputs...)
	obliv.Outputs = append([]core.OutputSpec(nil), obliv.Outputs...)
	edit(&obliv)
	edited := *a
	edited.Obliv = &obliv
	data, err := EncodePlan(&edited)
	if err != nil {
		t.Fatalf("EncodePlan: %v", err)
	}
	return data
}

// shiftOutputs moves every output spec 2²⁰ wires past where it is.
func shiftOutputs(oc *core.ObliviousCircuit) {
	for i := range oc.Outputs {
		oc.Outputs[i].Offset += 1 << 20
	}
}

// repeatInputAttribute gives the first input spec its first attribute
// twice, keeping its width.
func repeatInputAttribute(oc *core.ObliviousCircuit) {
	in := &oc.Inputs[0]
	in.Schema = append([]string{in.Schema[0]}, in.Schema[:len(in.Schema)-1]...)
}
