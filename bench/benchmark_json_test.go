package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repo root is what the benchmark driver reads;
// the tables in result.go and workloads.go are what this program
// prints. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}

	var wantWorkloads []entry
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		wantWorkloads = append(wantWorkloads, entry{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(spec.Workloads, wantWorkloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", spec.Workloads, wantWorkloads)
	}
	asEntries := func(defs []metricDef) []entry {
		var out []entry
		for _, d := range defs {
			out = append(out, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
		}
		return out
	}
	if want := asEntries(endToEnd); !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, want)
	}
	if want := asEntries(perLayer); !reflect.DeepEqual(spec.PerLayer, want) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, want)
	}
}
