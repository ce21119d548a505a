package store

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"circuitql/internal/relation"
)

// update regenerates the golden artifacts. Only do this deliberately,
// together with a format-version bump when the layout changed:
//
//	go test ./internal/store -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden format artifacts")

// goldenRelation is the fixed relation pinned in the columnar golden.
func goldenRelation() *relation.Relation {
	r := relation.New("src", "dst")
	r.Insert(1, 2)
	r.Insert(2, 3)
	r.Insert(3, 1)
	r.Insert(-7, 1000000)
	r.Insert(0, 0)
	return r
}

// TestGoldenPlanFormat is the format-compatibility gate for plan
// artifacts: the committed golden bytes must decode with the current
// decoder, re-encode to the identical bytes, and pass the semantic
// fingerprint check. If this fails after a format change, the change
// shipped without a PlanFormatVersion bump (or without regenerating the
// golden for the new version) — fix the version, regenerate with
// -update, and keep the old golden readable if the decoder claims
// compatibility with it.
func TestGoldenPlanFormat(t *testing.T) {
	path := filepath.Join("testdata", "golden_plan_v1.plan")
	if *update {
		canon, compiled, _ := compileCatalog(t, "triangle")
		data, err := EncodePlan(FromCompiled(canon, compiled))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) — bump PlanFormatVersion if the layout changed", path, len(data))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden plan artifact missing (regenerate with -update): %v", err)
	}
	a, err := DecodePlan(data)
	if err != nil {
		t.Fatalf("decoder no longer reads the committed v1 plan format: %v", err)
	}
	back, err := EncodePlan(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("encoder output for the golden plan changed (%d vs %d bytes) without a PlanFormatVersion bump",
			len(back), len(data))
	}
	if _, _, err := a.Compiled(); err != nil {
		t.Fatalf("golden plan fails the semantic fingerprint check: %v", err)
	}
	if PlanFormatVersion != 1 {
		t.Fatalf("PlanFormatVersion is now %d: commit a golden_plan_v%d.plan and extend this test to cover it",
			PlanFormatVersion, PlanFormatVersion)
	}
}

// TestGoldenColumnarFormat pins the columnar relation format the same
// way: committed v1 bytes must decode to the fixed relation and
// re-encode byte for byte.
func TestGoldenColumnarFormat(t *testing.T) {
	path := filepath.Join("testdata", "golden_rel_v1.col")
	if *update {
		var buf bytes.Buffer
		if err := WriteColumnar(&buf, "golden", goldenRelation()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) — bump RelFormatVersion if the layout changed", path, buf.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden columnar artifact missing (regenerate with -update): %v", err)
	}
	_, got, err := ReadColumnar(data)
	if err != nil {
		t.Fatalf("decoder no longer reads the committed v1 columnar format: %v", err)
	}
	if !got.Equal(goldenRelation()) {
		t.Fatalf("golden columnar artifact decoded to the wrong relation (%d rows)", got.Len())
	}
	var back bytes.Buffer
	if err := WriteColumnar(&back, "golden", got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Fatalf("encoder output for the golden relation changed (%d vs %d bytes) without a RelFormatVersion bump",
			back.Len(), len(data))
	}
	if RelFormatVersion != 1 {
		t.Fatalf("RelFormatVersion is now %d: commit a golden_rel_v%d.col and extend this test to cover it",
			RelFormatVersion, RelFormatVersion)
	}
}
