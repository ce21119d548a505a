package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke builds the real circuitd, runs it as a child and
// drives all four workloads, untraced and traced, at -quick sizing.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a circuitd child")
	}
	out := filepath.Join(t.TempDir(), "result.json")
	if code := run([]string{"-quick", "-out", out}); code != 0 {
		t.Fatalf("bench -quick exited %d", code)
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloads))
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range res.Workloads {
		if wr.Ops == 0 || wr.Failed != 0 {
			t.Errorf("%s: ops=%d failed=%d", wr.Name, wr.Ops, wr.Failed)
		}
		for _, def := range endToEnd {
			if m, ok := wr.EndToEnd[def.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", wr.Name, def.Name, m)
			}
		}
		for _, def := range perLayer {
			if _, ok := wr.PerLayer[def.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, def.Name)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", wr.Name, len(wr.PerLayer), len(perLayer))
		}
		if v := wr.PerLayer["engine.tier_not_vm"].Value; v != 0 {
			t.Errorf("%s: %v replies not served by the vm tier", wr.Name, v)
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+wr.Name+".json")); err != nil {
			t.Errorf("%s: span dump: %v", wr.Name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))); len(left) != 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}
