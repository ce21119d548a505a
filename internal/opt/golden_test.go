package opt_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"circuitql/internal/baseline"
	"circuitql/internal/boolcircuit"
	"circuitql/internal/opcircuits"
	"circuitql/internal/opt"
	"circuitql/internal/panda"
	"circuitql/internal/query"
	"circuitql/internal/relcircuit"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current optimizer")

// goldenCase pins exact circuit sizes before and after optimization for
// the paper's worked examples (Figures 1-4) plus the full triangle
// pipeline. Any optimizer change that shifts a gate count shows up as a
// diff against testdata/golden.json; regenerate deliberately with
// -update.
type goldenCase struct {
	GatesBefore int `json:"gates_before"`
	GatesAfter  int `json:"gates_after"`
	DepthBefore int `json:"depth_before"`
	DepthAfter  int `json:"depth_after"`
}

func relCase(t *testing.T, build func() *relcircuit.Circuit) goldenCase {
	t.Helper()
	c := build()
	o, _ := opt.Rel(c)
	// The constructions and passes must be deterministic: a second run
	// from scratch lands on identical sizes.
	c2 := build()
	o2, _ := opt.Rel(c2)
	if c.Size() != c2.Size() || o.Size() != o2.Size() {
		t.Fatalf("nondeterministic sizes: %d/%d then %d/%d", c.Size(), o.Size(), c2.Size(), o2.Size())
	}
	return goldenCase{c.Size(), o.Size(), c.Depth(), o.Depth()}
}

func boolCase(t *testing.T, build func() *boolcircuit.Circuit) goldenCase {
	t.Helper()
	c := build()
	o := mustBool(t, c)
	c2 := build()
	o2 := mustBool(t, c2)
	if c.Size() != c2.Size() || o.Size() != o2.Size() {
		t.Fatalf("nondeterministic sizes: %d/%d then %d/%d", c.Size(), o.Size(), c2.Size(), o2.Size())
	}
	return goldenCase{c.Size(), o.Size(), c.Depth(), o.Depth()}
}

func TestGoldenWorkedExamples(t *testing.T) {
	tri := query.Triangle()
	got := map[string]goldenCase{
		// Figure 1: the hand-designed heavy/light triangle circuit.
		"fig1_heavy_light_triangle_n64": relCase(t, func() *relcircuit.Circuit {
			c, _ := baseline.HeavyLightTriangle(64)
			return c
		}),
		// Figure 2 / Example 2: the PANDA-C triangle circuit.
		"fig2_pandac_triangle_n64": relCase(t, func() *relcircuit.Circuit {
			res, err := panda.CompileFCQCtx(context.Background(), tri, query.Cardinalities(tri, 64))
			if err != nil {
				t.Fatal(err)
			}
			return res.Circuit
		}),
		// Figure 3 / Algorithm 6: the primary-key join circuit.
		"fig3_pk_join_m8": boolCase(t, func() *boolcircuit.Circuit {
			c := boolcircuit.New()
			r := opcircuits.NewInput(c, []string{"A", "B"}, 8)
			s := opcircuits.NewInput(c, []string{"B", "C"}, 8)
			opcircuits.MarkOutputs(c, opcircuits.PKJoin(c, r, s))
			return c
		}),
		// Figure 4 / Algorithm 7: the degree-bounded join circuit
		// (the paper's worked instance has M=3, N=5, deg 2).
		"fig4_deg_join_m3_n5_deg2": boolCase(t, func() *boolcircuit.Circuit {
			c := boolcircuit.New()
			r := opcircuits.NewInput(c, []string{"A", "B"}, 3)
			s := opcircuits.NewInput(c, []string{"B", "C"}, 5)
			opcircuits.MarkOutputs(c, opcircuits.DegJoin(c, r, s, 2))
			return c
		}),
	}

	path := filepath.Join("testdata", "golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s: got %+v, want %+v", name, got[name], w)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: present now, missing from golden file", name)
			}
		}
	}
}
