package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/vm"
)

// FuzzPlanDecode: DecodePlan must never panic on adversarial bytes and
// must accept exactly what ReadPlan accepts from a stream of them. The
// program of anything it accepts must run one EvalBatch of all-zero
// inputs at a batch of 1 and of 8 without a fault — the vector kernels
// index the slab unchecked, so this is what holds the decoder's
// validation to its purpose — and its output specs must decode an
// all-zero output vector of the program's width. An accepted artifact
// must re-encode deterministically to one that decodes back to the same
// thing (one-round fixed point). The committed corpus holds version-1
// files too, which decode by compiling their circuit.
func FuzzPlanDecode(f *testing.F) {
	canon, compiled, _ := compileCatalog(f, "triangle")
	art := FromCompiled(canon, compiled)
	valid, err := EncodePlan(art)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(editedPlan(f, art, shiftOutputs))
	f.Add(editedPlan(f, art, func(oc *core.ObliviousCircuit) { // a repeated attribute, width unchanged
		o := &oc.Outputs[0]
		o.Schema = append([]string{o.Schema[0]}, o.Schema[:len(o.Schema)-1]...)
	}))
	f.Add(editedPlan(f, art, repeatInputAttribute))
	f.Add([]byte{})
	f.Add([]byte(planMagic))
	f.Add(append([]byte(planMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x80
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodePlan(data)
		if _, rerr := ReadPlan(bytes.NewReader(data)); (rerr == nil) != (err == nil) {
			t.Fatalf("ReadPlan and DecodePlan disagree: %v vs %v", rerr, err)
		}
		if err != nil {
			return
		}
		checkAccepted(t, a)
		out, err := EncodePlan(a)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		b, err := DecodePlan(out)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if b.FP != a.FP || b.QueryText != a.QueryText || b.DCText != a.DCText ||
			b.RelOutput != a.RelOutput || b.Gates != a.Gates || b.Depth != a.Depth ||
			!bytes.Equal(b.Prog.Append(nil), a.Prog.Append(nil)) {
			t.Fatalf("round trip changed the artifact: %+v vs %+v", b, a)
		}
		out2, err := EncodePlan(b)
		if err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}

// checkAccepted runs an accepted artifact's program on all-zero inputs
// at a batch of 1 and of 8, which must not fault — the vector kernels
// index the slab unchecked, so this is what holds the decoder's
// validation to its purpose — and decodes an all-zero output vector of
// the program's width through its output specs.
func checkAccepted(t *testing.T, a *PlanArtifact) {
	t.Helper()
	for _, batch := range []int{1, 8} {
		inputs := make([][]vm.Word, batch)
		for r := range inputs {
			inputs[r] = make([]vm.Word, a.Prog.NumInputs())
		}
		if _, err := a.Prog.EvalBatch(context.Background(), inputs); err != nil {
			t.Fatalf("accepted program fails a batch of %d: %v", batch, err)
		}
	}
	plan := &core.Compiled{RelOutput: a.RelOutput, Obliv: a.Obliv}
	if _, err := plan.DecodeOblivious(make([]int64, a.Prog.NumOutputs())); err != nil {
		t.Fatalf("accepted artifact does not decode an all-zero output: %v", err)
	}
}

// FuzzPlanBody fuzzes what FuzzPlanDecode's mutations rarely reach: a
// mutated file fails its checksum, so this target hands bytes to the
// body decoder (decodeBody) directly. Its property is FuzzPlanDecode's
// without the envelope: no panic, and anything accepted passes
// checkAccepted. The seeds are small, because the fuzzer minimizes every
// input that finds new coverage one run a step: the committed corpus
// holds the 2 KB bodies of a pair plan and of one whose program reads a
// slot before writing it, and a version-1 body whose circuit has a gate
// with an absent operand; the code adds the pair plan's version-1 body
// and two edits of its version-2 one.
func FuzzPlanBody(f *testing.F) {
	q := query.MustParse("Q(A,B) :- R(A,B), S(A,B)")
	canon, err := query.Canonicalize(q, query.Cardinalities(q, 2))
	if err != nil {
		f.Fatal(err)
	}
	compiled, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
	if err != nil {
		f.Fatal(err)
	}
	art := FromCompiled(canon, compiled)
	f.Add(envelopeBody(f, editedPlan(f, art, shiftOutputs)))
	f.Add(envelopeBody(f, editedPlan(f, art, repeatInputAttribute)))
	// The version-1 body: the header, then the swept circuit with its
	// specs, which decodes by compiling the circuit.
	head, err := json.Marshal(planHeader{Version: 1, FP: art.FP.String(), Query: art.QueryText,
		DC: art.DCText, RelOutput: art.RelOutput, Gates: art.Gates})
	if err != nil {
		f.Fatal(err)
	}
	v1, err := compiled.Obliv.Append(append(binary.AppendUvarint(nil, uint64(len(head))), head...))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		a, err := decodeBody(body)
		if err != nil {
			return
		}
		checkAccepted(t, a)
	})
}

// envelopeBody returns the body of an encoded plan: what lies between
// the magic and length prefix and the checksum.
func envelopeBody(t testing.TB, data []byte) []byte {
	t.Helper()
	bodyLen, n := binary.Uvarint(data[len(planMagic):])
	start := len(planMagic) + n
	if n <= 0 || uint64(len(data)) != uint64(start)+bodyLen+sha256.Size {
		t.Fatalf("not a plan envelope (%d bytes)", len(data))
	}
	return data[start : start+int(bodyLen)]
}

// FuzzRelScan: the columnar decoder must never panic, and any file it
// accepts must round-trip through WriteColumnar to the same relation.
func FuzzRelScan(f *testing.F) {
	r := relation.New("a", "b")
	r.Insert(1, 2)
	r.Insert(-3, 4)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, "seed", r); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte(relMagic))
	f.Add(buf.Bytes()[:buf.Len()/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		name, got, err := ReadColumnar(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteColumnar(&out, name, got); err != nil {
			t.Fatalf("accepted relation does not re-encode: %v", err)
		}
		_, back, err := ReadColumnar(out.Bytes())
		if err != nil {
			t.Fatalf("re-encoded relation does not decode: %v", err)
		}
		if !back.Equal(got) {
			t.Fatalf("round trip changed the relation: %d vs %d rows", back.Len(), got.Len())
		}
	})
}
