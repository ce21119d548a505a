package store

import (
	"bytes"
	"context"
	"testing"

	"circuitql/internal/core"
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

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodePlan(data)
		if _, rerr := ReadPlan(bytes.NewReader(data)); (rerr == nil) != (err == nil) {
			t.Fatalf("ReadPlan and DecodePlan disagree: %v vs %v", rerr, err)
		}
		if err != nil {
			return
		}
		for _, batch := range []int{1, 8} {
			inputs := make([][]vm.Word, batch)
			for r := range inputs {
				inputs[r] = make([]vm.Word, a.Prog.NumInputs())
			}
			if _, err := a.Prog.EvalBatch(ctx, inputs); err != nil {
				t.Fatalf("accepted program fails a batch of %d: %v", batch, err)
			}
		}
		plan := &core.Compiled{RelOutput: a.RelOutput, Obliv: a.Obliv}
		if _, err := plan.DecodeOblivious(make([]int64, a.Prog.NumOutputs())); err != nil {
			t.Fatalf("accepted artifact does not decode an all-zero output: %v", err)
		}
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
