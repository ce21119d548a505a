package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/vm"
	"circuitql/internal/workload"
)

// TestColumnarRoundTrip: write → ReadColumnar is the identity on
// relations (name, schema and rows), including negative values,
// relations spanning multiple row blocks, and the empty relation; the
// encoding is deterministic.
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

		gotName, got, err := ReadColumnar(buf.Bytes())
		if err != nil {
			t.Fatalf("ReadColumnar(%s): %v", name, err)
		}
		if gotName != name || !slices.Equal(got.Schema(), r.Schema()) || got.Len() != r.Len() {
			t.Fatalf("%s: decoded name=%q schema=%v rows=%d", name, gotName, got.Schema(), got.Len())
		}
		if !got.Equal(r) {
			t.Fatalf("%s: round trip lost tuples: %d vs %d rows", name, got.Len(), r.Len())
		}
	}
}

// TestColumnarRejectsCorruption: flipped bytes and truncations surface
// as decode errors (in the body or at the final checksum), never as
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
		_, _, err := ReadColumnar(b)
		return err
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

// TestColumnarRejectsHostileCounts: a header or count claiming more
// dictionary entries or block cells than the file has bytes left is
// rejected before anything that size is allocated (each entry and each
// index takes at least one byte).
func TestColumnarRejectsHostileCounts(t *testing.T) {
	prefix := func(schema []string, rows int64, blockRows int) []byte {
		head, err := json.Marshal(colHeader{Version: RelFormatVersion, Name: "x", Schema: schema, Rows: rows, BlockRows: blockRows})
		if err != nil {
			t.Fatal(err)
		}
		b := binary.AppendUvarint([]byte(relMagic), uint64(len(head)))
		return append(b, head...)
	}

	// One column whose dictionary claims 2^30 entries (8 GiB of int64s).
	dict := binary.AppendUvarint(prefix([]string{"a"}, 1, DefaultBlockRows), 1<<30)
	if _, _, err := ReadColumnar(dict); err == nil {
		t.Fatal("a dictionary longer than the file was accepted")
	}

	// 1024 one-value columns and one block claiming 2^20 rows: 2^30
	// cells, with no index bytes behind them.
	wide := make([]string, 1<<10)
	for i := range wide {
		wide[i] = fmt.Sprintf("a%d", i)
	}
	block := prefix(wide, 1<<20, 1<<20)
	for range wide {
		block = binary.AppendVarint(binary.AppendUvarint(block, 1), 0)
	}
	block = binary.AppendUvarint(block, 1<<20)
	if _, _, err := ReadColumnar(block); err == nil {
		t.Fatal("a block larger than the file was accepted")
	}
}

// TestExportOpenLoad: ExportDB and LoadDB round-trip a whole workload
// database through the columnar directory format.
func TestExportOpenLoad(t *testing.T) {
	q := query.Triangle()
	want := workload.ForQuery(q, 3, 8)
	dir := t.TempDir()
	if err := ExportDB(dir, want); err != nil {
		t.Fatalf("ExportDB: %v", err)
	}
	got, err := LoadDB(dir)
	if err != nil {
		t.Fatalf("LoadDB: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("LoadDB found %d relations, want %d", len(got), len(want))
	}
	for name, r := range want {
		if got[name] == nil {
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
// loaded back the way circuitd -db loads it (LoadDB), packed and run
// through the vectorized evaluator, answers exactly what the reference
// oblivious evaluation answers on the in-memory original.
func TestColumnarToVMEndToEnd(t *testing.T) {
	_, compiled, mem := compileCatalog(t, "triangle")
	dir := t.TempDir()
	if err := ExportDB(dir, mem); err != nil {
		t.Fatalf("ExportDB: %v", err)
	}
	loaded, err := LoadDB(dir)
	if err != nil {
		t.Fatalf("LoadDB: %v", err)
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

// TestLoadDBRejectsMisfiledRelation: a columnar file copied under
// another relation's file name is refused, naming both, instead of
// serving the original relation's tuples under the new name.
func TestLoadDBRejectsMisfiledRelation(t *testing.T) {
	dir := t.TempDir()
	if err := ExportDB(dir, workload.ForQuery(query.Triangle(), 3, 8)); err != nil {
		t.Fatalf("ExportDB: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "R"+relExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "S"+relExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDB(dir)
	if err == nil {
		t.Fatal("LoadDB served R.col's relation as S")
	}
	if !strings.Contains(err.Error(), `"S"`) || !strings.Contains(err.Error(), `"R"`) {
		t.Fatalf("LoadDB error does not name both relations: %v", err)
	}
}
