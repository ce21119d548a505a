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
// artifacts: the committed golden bytes of the current version must
// decode with the current decoder, re-encode to the identical bytes, and
// pass the semantic fingerprint check. If this fails after a format
// change, the change shipped without a PlanFormatVersion bump (or
// without regenerating the golden for the new version) — fix the
// version, regenerate with -update, and keep the old golden readable if
// the decoder claims compatibility with it.
func TestGoldenPlanFormat(t *testing.T) {
	path := filepath.Join("testdata", "golden_plan_v2.plan")
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
		t.Fatalf("decoder no longer reads the committed v2 plan format: %v", err)
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
	if PlanFormatVersion != 2 {
		t.Fatalf("PlanFormatVersion is now %d: commit a golden_plan_v%d.plan and extend this test to cover it",
			PlanFormatVersion, PlanFormatVersion)
	}
}

// TestGoldenPlanMigratesV1: the committed version-1 golden, which holds
// the same plan's swept circuit, still decodes, and re-encodes to exactly
// the version-2 golden: migrating a file changes its format, never its
// plan, its charge or its depth.
func TestGoldenPlanMigratesV1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_plan_v1.plan"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "golden_plan_v2.plan"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodePlan(v1)
	if err != nil {
		t.Fatalf("decoder no longer reads the committed v1 plan format: %v", err)
	}
	if a.Obliv.C != nil {
		t.Fatal("a migrated artifact kept its circuit")
	}
	back, err := EncodePlan(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, v2) {
		t.Fatalf("the v1 golden migrates to %d bytes that are not the v2 golden's %d", len(back), len(v2))
	}
}

// TestStoreRewritesV1: GetPlan serves a version-1 file and leaves the
// version-2 file of the same plan in its place, which the next GetPlan
// reads without migrating; the store indexes one plan throughout.
func TestStoreRewritesV1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_plan_v1.plan"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "golden_plan_v2.plan"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodePlan(v1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, a.FP.String()+planExt)
	if err := os.WriteFile(file, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := st.GetPlan(a.FP)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if got.migrated != (i == 0) {
			t.Fatalf("load %d: migrated %v", i, got.migrated)
		}
		if data, err := os.ReadFile(file); err != nil || !bytes.Equal(data, v2) {
			t.Fatalf("load %d: the file on disk is not the v2 golden (err %v)", i, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || st.Len() != 1 {
		t.Fatalf("after the rewrite: %d files (err %v), %d plans indexed; want one of each", len(entries), err, st.Len())
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
