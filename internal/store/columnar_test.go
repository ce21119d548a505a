package store

import (
	"bytes"
	"context"
	"io"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

// TestColumnarRoundTrip: write → scan → materialize is the identity on
// relations, including negative values, relations spanning multiple row
// blocks, and the empty relation; the encoding is deterministic.
func TestColumnarRoundTrip(t *testing.T) {
	small := relation.New("a", "b")
	small.Insert(-5, 10)
	small.Insert(0, -1)
	small.Insert(7, 7)

	big := relation.New("x", "y", "z")
	for i := 0; i < 3*DefaultBlockRows+17; i++ {
		big.Insert(int64(i%97-48), int64(i), int64(-i))
	}

	empty := relation.New("only")

	for name, r := range map[string]*relation.Relation{"small": small, "big": big, "empty": empty} {
		var buf, buf2 bytes.Buffer
		if err := WriteColumnar(&buf, name, r); err != nil {
			t.Fatalf("WriteColumnar(%s): %v", name, err)
		}
		if err := WriteColumnar(&buf2, name, r); err != nil {
			t.Fatalf("second WriteColumnar(%s): %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: encoding is not deterministic", name)
		}

		s, err := NewRelScan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewRelScan(%s): %v", name, err)
		}
		if s.Name() != name || s.Arity() != r.Arity() || s.Rows() != int64(r.Len()) {
			t.Fatalf("%s: scan header name=%q arity=%d rows=%d", name, s.Name(), s.Arity(), s.Rows())
		}
		got, err := s.Materialize()
		if err != nil {
			t.Fatalf("Materialize(%s): %v", name, err)
		}
		if !got.Equal(r) {
			t.Fatalf("%s: round trip lost tuples: %d vs %d rows", name, got.Len(), r.Len())
		}
		// A finished scan reports clean EOF on further batches.
		if _, err := s.NextBatch(); err != io.EOF {
			t.Fatalf("%s: NextBatch after end = %v, want io.EOF", name, err)
		}
	}
}

// TestColumnarRejectsCorruption: flipped bytes and truncations surface
// as scan errors (at batch decode or at the final checksum), never as
// silently wrong tuples and never as a panic.
func TestColumnarRejectsCorruption(t *testing.T) {
	r := relation.New("a", "b")
	for i := 0; i < 2*DefaultBlockRows; i++ {
		r.Insert(int64(i), int64(i*3%31))
	}
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, "rel", r); err != nil {
		t.Fatalf("WriteColumnar: %v", err)
	}
	data := buf.Bytes()

	drain := func(b []byte) error {
		s, err := NewRelScan(bytes.NewReader(b))
		if err != nil {
			return err
		}
		for {
			if _, err := s.NextBatch(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	step := len(data)/211 + 1
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if drain(mut) == nil {
			t.Fatalf("flipping byte %d of %d went undetected", off, len(data))
		}
	}
	for n := 0; n < len(data); n += step {
		if drain(data[:n]) == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(data))
		}
	}
	if drain(append(append([]byte(nil), data...), 0)) == nil {
		t.Fatal("trailing byte went undetected")
	}
}

// TestExportOpenLoad: ExportDB and OpenDB round-trip a whole workload
// database through the columnar directory format.
func TestExportOpenLoad(t *testing.T) {
	q := query.Triangle()
	want := workload.ForQuery(q, 3, 8)
	dir := t.TempDir()
	if err := ExportDB(dir, want); err != nil {
		t.Fatalf("ExportDB: %v", err)
	}
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	if len(db.Names()) != len(want) {
		t.Fatalf("OpenDB found %v, want %d relations", db.Names(), len(want))
	}
	got, err := db.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for name, r := range want {
		if !db.Has(name) {
			t.Fatalf("exported database misses %q", name)
		}
		if !got[name].Equal(r) {
			t.Fatalf("relation %q changed across export/load", name)
		}
	}
	if err := ExportDB(dir, want); err != nil {
		t.Fatalf("re-export over existing files: %v", err)
	}
}

// TestColumnarToVMEndToEnd: a database exported to columnar files and
// loaded back the way circuitd -db loads it (DB.Load), packed and run
// through the vectorized evaluator, answers exactly what the reference
// oblivious evaluation answers on the in-memory original.
func TestColumnarToVMEndToEnd(t *testing.T) {
	_, compiled, mem := compileCatalog(t, "triangle")
	dir := t.TempDir()
	if err := ExportDB(dir, mem); err != nil {
		t.Fatalf("ExportDB: %v", err)
	}
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	loaded, err := db.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	packed, err := compiled.PackOblivious(loaded)
	if err != nil {
		t.Fatalf("PackOblivious: %v", err)
	}
	prog, err := vm.Compile(context.Background(), compiled.Obliv.C)
	if err != nil {
		t.Fatalf("vm.Compile: %v", err)
	}
	outs, err := prog.EvalBatch(context.Background(), [][]vm.Word{packed})
	if err != nil {
		t.Fatalf("EvalBatch: %v", err)
	}
	got, err := compiled.DecodeOblivious(outs[0])
	if err != nil {
		t.Fatalf("DecodeOblivious: %v", err)
	}
	want, err := compiled.EvaluateObliviousCtx(context.Background(), mem)
	if err != nil {
		t.Fatalf("EvaluateOblivious: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("disk-fed vm answered %d rows, reference %d", got.Len(), want.Len())
	}
}
