package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repo root
// lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before it counts as a regression; 0 on per-layer ones.
	Bound float64
}

// endToEnd are the metrics every workload reports and every later
// change is held to by the benchmark driver.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"rps", "1/s", "higher", 0.25},
}

// The tails are reported beside them and judged by `bench compare`, but
// the driver does not gate them: on the sizing box a tail of the same
// commit moves by up to half when the host turns busy (see README,
// Noise floor). p90 is the highest percentile with ten samples beyond it
// on all four workloads (cold-compile collects ~190 samples in a 25 s
// run); p95 is reported wherever the sample count carries it.
var (
	p90 = metricDef{"p90_ms", "ms", "lower", 0.25}
	p95 = metricDef{"p95_ms", "ms", "lower", 0.25}
)

// reported is every end-to-end metric a result file may hold.
var reported = append(append([]metricDef(nil), endToEnd...), p90, p95)

// perLayer are the traced pass's metrics, layer = package under internal/.
var perLayer = []metricDef{
	{"wire.codec_us", "us", "lower", 0},
	{"wire.rtt_us", "us", "lower", 0},
	{"wire.outside_engine_us", "us", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
	{"query.canonicalize_us", "us", "lower", 0},
	{"query.ram_eval_us", "us", "lower", 0},
	{"engine.submit_us", "us", "lower", 0},
	{"engine.self_us", "us", "lower", 0},
	{"engine.hits", "count", "higher", 0},
	{"engine.misses", "count", "lower", 0},
	{"engine.compiles", "count", "lower", 0},
	{"engine.evictions", "count", "lower", 0},
	{"engine.tier_not_vm", "count", "lower", 0},
	{"core.pack_us", "us", "lower", 0},
	{"core.decode_us", "us", "lower", 0},
	{"core.lower_ms", "ms", "lower", 0},
	{"core.word_gates_raw", "count", "lower", 0},
	{"core.compile_ms", "ms", "lower", 0},
	{"bound.lp_ms", "ms", "lower", 0},
	{"bound.log2_bound", "bits", "lower", 0},
	{"proofseq.build_ms", "ms", "lower", 0},
	{"proofseq.steps", "count", "lower", 0},
	{"panda.compile_ms", "ms", "lower", 0},
	{"panda.rel_gates", "count", "lower", 0},
	{"panda.restarts", "count", "lower", 0},
	{"opt.rel_ms", "ms", "lower", 0},
	{"opt.bool_ms", "ms", "lower", 0},
	{"opt.word_gates", "count", "lower", 0},
	{"opt.word_depth", "count", "lower", 0},
	{"vm.compile_ms", "ms", "lower", 0},
	{"vm.instructions", "count", "lower", 0},
	{"vm.slots", "count", "lower", 0},
	{"vm.levels", "count", "lower", 0},
	{"vm.eval_us", "us", "lower", 0},
	{"vm.ns_per_gate", "ns", "lower", 0},
	{"vm.eval_b16_us_per_req", "us", "lower", 0},
	{"boolcircuit.interp_eval_us", "us", "lower", 0},
	{"qos.batches", "count", "lower", 0},
	{"qos.mean_batch", "count", "higher", 0},
	{"qos.shed", "count", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"store.get_ms", "ms", "lower", 0},
	{"store.bytes_per_plan", "bytes", "lower", 0},
	{"loadgen.p90_ms", "ms", "lower", 0},
	{"loadgen.p95_ms", "ms", "lower", 0},
	{"loadgen.p99_ms", "ms", "lower", 0},
	{"loadgen.max_late_ms", "ms", "lower", 0},
	{"daemon.peak_rss_mb", "MB", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// unitOf is a per-layer metric's declared unit.
func unitOf(name string) string {
	for _, def := range perLayer {
		if def.Name == name {
			return def.Unit
		}
	}
	return ""
}

// meta records what a result was measured on.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	Time       string  `json:"time"`
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name        string   `json:"name"`
	Why         string   `json:"why"`
	DaemonFlags []string `json:"daemon_flags"`
	Ops         int      `json:"ops"`
	Failed      int      `json:"failed"`
	// Samples is how many latencies the repetitions hold together; Top
	// is the highest percentile with ten of them beyond it.
	Samples  int               `json:"samples"`
	Top      float64           `json:"top_percentile"`
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

type result struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *result) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// addUntraced files the untraced pass's numbers: the end-to-end metrics
// and p90 (p95 only when ten samples lie beyond it), ops and failed.
func (wr *workloadResult) addUntraced(sum summary) {
	wr.Ops += sum.Ops
	wr.Failed += sum.Failed
	wr.Samples, wr.Top = sum.Samples, sum.Top
	wr.EndToEnd = map[string]metric{}
	for _, def := range reported {
		if def.Name == p95.Name && sum.Top < 95 {
			continue
		}
		wr.EndToEnd[def.Name] = sum.Metrics[def.Name]
	}
}

// addTraced files the traced pass's numbers.
func (wr *workloadResult) addTraced(t *tracer) {
	wr.Ops += t.ops
	wr.Failed += t.failed
	wr.PerLayer = t.out
}

// print writes every metric by name and unit, with its repetition
// spread — the noise floor — beside the value.
func (wr *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  ops=%d failed=%d", wr.Name, wr.Ops, wr.Failed)
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, " latency samples=%d", wr.Samples)
	}
	fmt.Fprintln(w)
	line := func(name string, m metric) {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s", name, m.Value, m.Unit)
		if len(m.Reps) > 1 {
			fmt.Fprintf(w, " spread %5.1f%% over %d reps", 100*m.Spread, len(m.Reps))
		}
		fmt.Fprintln(w)
	}
	if wr.EndToEnd != nil {
		for _, def := range reported {
			m, ok := wr.EndToEnd[def.Name]
			switch {
			case ok:
				line(def.Name, m)
			case def.Name == p95.Name:
				fmt.Fprintf(w, "  %-28s withheld: fewer than %d of %d samples lie beyond it\n", def.Name, minBeyond, wr.Samples)
			}
		}
		if wr.Top < 90 {
			fmt.Fprintf(w, "  (p90_ms has fewer than %d samples beyond it: read it as a maximum, not a tail)\n", minBeyond)
		}
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, wr.PerLayer[name])
	}
}

// contractLine is the last line of a single-workload run: the object
// the benchmark driver reads.
func contractLine(wr *workloadResult, defs []metricDef, from map[string]metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range defs {
		m, ok := from[def.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", wr.Name, def.Name)
		}
		metrics[def.Name] = value{m.Value, def.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   wr.Failed == 0,
		"attempted": wr.Ops,
		"failed":    wr.Failed,
		"metrics":   metrics,
	})
	return string(out), err
}
