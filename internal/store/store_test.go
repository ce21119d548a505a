package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"circuitql/internal/query"
)

// TestStorePutGetReopen: artifacts persist across Open calls, writes
// are deduplicated, and a reopen rebuilds the index from the directory
// and sweeps temp leftovers.
func TestStorePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	var fps []string
	for _, name := range []string{"triangle", "path3"} {
		canon, compiled, _ := compileCatalog(t, name)
		a := FromCompiled(canon, compiled)
		if err := s.PutPlan(a); err != nil {
			t.Fatalf("PutPlan(%s): %v", name, err)
		}
		if !s.HasPlan(a.FP) {
			t.Fatalf("HasPlan(%s) false after PutPlan", name)
		}
		// A second put of the same fingerprint is a no-op.
		if err := s.PutPlan(a); err != nil {
			t.Fatalf("repeat PutPlan(%s): %v", name, err)
		}
		back, err := s.GetPlan(a.FP)
		if err != nil {
			t.Fatalf("GetPlan(%s): %v", name, err)
		}
		if back.QueryText != a.QueryText {
			t.Fatalf("GetPlan(%s) returned %q, want %q", name, back.QueryText, a.QueryText)
		}
		fps = append(fps, a.FP.String())
	}

	st := s.Stats()
	if st.Plans != 2 || st.Writes != 2 || st.Hits != 2 || st.Corrupt != 0 {
		t.Fatalf("stats after put/get: %+v", st)
	}
	if _, err := s.GetPlan([32]byte{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetPlan(unknown) = %v, want ErrNotFound", err)
	}

	// Reopen: the index survives via the artifact files.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Plans(); len(got) != 2 || got[0].String() >= got[1].String() {
		t.Fatalf("reopened Plans() = %v", got)
	}

	// Drop a stray temp file: Open indexes the artifacts from the
	// directory and sweeps the leftover.
	stray := filepath.Join(dir, "leftover-123"+tmpExt)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("open with a temp leftover: %v", err)
	}
	if s3.Len() != 2 {
		t.Fatalf("rebuilt store indexes %d plans, want 2", s3.Len())
	}
	for _, hex := range fps {
		fp, err := parseFingerprint(hex)
		if err != nil {
			t.Fatal(err)
		}
		if !s3.HasPlan(fp) {
			t.Fatalf("rebuilt store lost %s", hex[:8])
		}
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived Open: %v", err)
	}
}

// TestStoreDirectoryIsIndex: the *.plan files are the whole index. N
// writes leave exactly N artifacts and nothing else, a fresh Open
// indexes the same N in the same order and sweeps temp leftovers, and
// the MANIFEST.json an older release kept is ignored.
func TestStoreDirectoryIsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	names := []string{"triangle", "path3", "path2"}
	var first *PlanArtifact
	for _, name := range names {
		canon, compiled, _ := compileCatalog(t, name)
		a := FromCompiled(canon, compiled)
		if err := s.PutPlan(a); err != nil {
			t.Fatalf("PutPlan(%s): %v", name, err)
		}
		if first == nil {
			first = a
		}
	}
	listing := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ent := range entries {
			out = append(out, ent.Name())
		}
		return out
	}
	var want []string
	for _, fp := range s.Plans() {
		want = append(want, fp.String()+planExt)
	}
	if got := listing(); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(names) {
		t.Fatalf("after %d writes the directory holds %v, want exactly %v", len(names), got, want)
	}

	stray := filepath.Join(dir, "leftover-123"+tmpExt)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if fmt.Sprint(s2.Plans()) != fmt.Sprint(s.Plans()) {
		t.Fatalf("reopened Plans() = %v, want %v", s2.Plans(), s.Plans())
	}
	if got := listing(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopen left %v, want exactly %v", got, want)
	}

	// An older release's manifest, aliases included, is not read.
	info, err := os.Stat(s.planPath(first.FP))
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "MANIFEST.json")
	old := fmt.Sprintf(parentManifest, PlanFormatVersion, first.FP, info.Size(), first.Gates)
	if err := os.WriteFile(manifestPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("Open beside an older manifest: %v", err)
	}
	if s3.Len() != len(names) {
		t.Fatalf("Open beside an older manifest indexes %d plans, want %d", s3.Len(), len(names))
	}
	if _, err := s3.GetPlan(first.FP); err != nil {
		t.Fatalf("GetPlan beside an older manifest: %v", err)
	}
	canon, compiled, _ := compileCatalog(t, "cycle4")
	if err := s3.PutPlan(FromCompiled(canon, compiled)); err != nil {
		t.Fatalf("PutPlan beside an older manifest: %v", err)
	}
	if s3.Len() != len(names)+1 {
		t.Fatalf("store indexes %d plans after one more write, want %d", s3.Len(), len(names)+1)
	}
	if kept, err := os.ReadFile(manifestPath); err != nil || string(kept) != old {
		t.Fatalf("the older manifest was rewritten (err %v)", err)
	}
}

// TestStoreQuarantinesCorrupt: an artifact whose bytes rot fails its
// read, is renamed aside with a .corrupt suffix, leaves the index, and
// later lookups miss cleanly.
func TestStoreQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	canon, compiled, _ := compileCatalog(t, "triangle")
	a := FromCompiled(canon, compiled)
	if err := s.PutPlan(a); err != nil {
		t.Fatalf("PutPlan: %v", err)
	}

	path := s.planPath(a.FP)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.GetPlan(a.FP); err == nil {
		t.Fatal("corrupt artifact decoded")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Plans != 0 {
		t.Fatalf("stats after corruption: %+v", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	if _, err := s.GetPlan(a.FP); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second GetPlan = %v, want ErrNotFound", err)
	}
}

// TestStoreVerify: Verify passes a healthy store and names the corrupt
// artifact in a damaged one.
func TestStoreVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	canon, compiled, _ := compileCatalog(t, "triangle")
	canon2, compiled2, _ := compileCatalog(t, "cycle4")
	if err := s.PutPlan(FromCompiled(canon, compiled)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPlan(FromCompiled(canon2, compiled2)); err != nil {
		t.Fatal(err)
	}
	for _, res := range s.Verify() {
		if res.Err != nil {
			t.Fatalf("Verify(%s): %v", res.FP.Short(), res.Err)
		}
	}

	path := s.planPath(canon.FP)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, res := range s.Verify() {
		if res.Err != nil {
			if res.FP != canon.FP {
				t.Fatalf("Verify blamed %s, corrupted %s", res.FP.Short(), canon.FP.Short())
			}
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("Verify found %d corrupt artifacts, want 1", bad)
	}
}

// parentManifest is MANIFEST.json as the last release with plan aliasing
// wrote it for a store holding one plan and one alias onto it.
const parentManifest = `{
  "format": %[1]d,
  "plans": {
    "%[2]s": {
      "bytes": %[3]d,
      "gates": %[4]d
    }
  },
  "aliases": {
    "deadbeef00000000000000000000000000000000000000000000000000000000": {
      "target": "%[2]s",
      "digest": "5f0c1a7e9d3b2468ace013579bdf02468ace013579bdf02468ace013579bdf0a",
      "rename": {
        "x1": "x2"
      }
    }
  }
}
`

// TestStoreAliases: the aliases map an older release kept in its
// manifest is not part of the format any more, and neither is the
// manifest. A directory that still carries one opens without error,
// serves its plans, takes new ones, and leaves the file as it was.
func TestStoreAliases(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	canon, compiled, _ := compileCatalog(t, "path3")
	art := FromCompiled(canon, compiled)
	if err := s.PutPlan(art); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.planPath(canon.FP))
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "MANIFEST.json")
	old := fmt.Sprintf(parentManifest, PlanFormatVersion, canon.FP, info.Size(), art.Gates)
	if err := os.WriteFile(manifestPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with an aliases map in the manifest: %v", err)
	}
	if _, err := s2.GetPlan(canon.FP); err != nil {
		t.Fatalf("GetPlan: %v", err)
	}
	if kept, err := os.ReadFile(manifestPath); err != nil || string(kept) != old {
		t.Fatalf("Open rewrote the older manifest (err %v)", err)
	}

	canon2, compiled2, _ := compileCatalog(t, "path2")
	if err := s2.PutPlan(FromCompiled(canon2, compiled2)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, fp := range []query.Fingerprint{canon.FP, canon2.FP} {
		if _, err := s3.GetPlan(fp); err != nil {
			t.Fatalf("GetPlan(%s) after reopening: %v", fp.Short(), err)
		}
	}
}
