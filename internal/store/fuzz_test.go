package store

import (
	"bytes"
	"testing"

	"circuitql/internal/relation"
)

// FuzzPlanDecode: DecodePlan must never panic on adversarial bytes, and
// anything it accepts must re-encode deterministically to an artifact
// that decodes back to the same thing (one-round fixed point).
func FuzzPlanDecode(f *testing.F) {
	canon, compiled, _ := compileCatalog(f, "triangle")
	valid, err := EncodePlan(FromCompiled(canon, compiled))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
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
		if err != nil {
			return
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
			b.RelOutput != a.RelOutput || b.Gates != a.Gates || b.WideLevel != a.WideLevel {
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
