// Benchmark comparator mode: parse `go test -bench` output, snapshot
// it as JSON, and gate CI on regressions against a committed baseline.
//
// The CI perf job pipes the raw bench output in:
//
//	go test -bench=. -benchtime=3x -count=3 -run=^$ ./... | tee bench.out
//	benchtab -bench-parse bench.out -bench-out benchtab-snapshot.json \
//	         -bench-baseline BENCH_baseline.json
//
// Each benchmark's ns/op is the minimum across its -count samples (the
// least-noise estimator on shared runners). Only benchmarks matching
// -bench-gate fail the run; everything else is reported informationally.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"circuitql/internal/stats"
)

// BenchResult is one benchmark's snapshot entry.
type BenchResult struct {
	NsPerOp float64 `json:"ns_per_op"` // minimum across samples
	Samples int     `json:"samples"`
}

// BenchSnapshot is the JSON document written to benchtab-snapshot.json
// and committed as BENCH_baseline.json.
type BenchSnapshot struct {
	Date       string                 `json:"date"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkEngineCachedVsCold/engine-cached-8   3   11225789 ns/op   4.000 cache-hits
//
// Extra ReportMetric columns after ns/op are ignored.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// gomaxprocsSuffix is the trailing -N the bench runner appends to every
// name; stripped so snapshots compare across machines with different
// core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads raw `go test -bench` output and folds repeated
// samples of the same benchmark to their minimum ns/op.
func parseBench(r io.Reader) (map[string]BenchResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]BenchResult)
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		r := out[name]
		if r.Samples == 0 || ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		r.Samples++
		out[name] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

// benchCompare runs the comparator mode; the returned code is the
// process exit status (1 on gated regression or I/O error).
func benchCompare(in, out, baseline, gate string, thresholdPct float64) int {
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		defer f.Close()
		src = f
	}
	cur, err := parseBench(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		return 1
	}

	if out != "" {
		snap := BenchSnapshot{Date: time.Now().Format("2006-01-02"), Benchmarks: cur}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			return 1
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(cur))
	}
	if baseline == "" {
		return 0
	}

	base, err := readSnapshot(baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		return 1
	}
	gateRE, err := regexp.Compile(gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab: bad -bench-gate:", err)
		return 1
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	tb := stats.NewTable("benchmark", "baseline ns/op", "current ns/op", "delta %", "gated")
	gatedSeen := false
	var regressions []string
	for _, name := range names {
		b, inBase := base.Benchmarks[name]
		gated := gateRE.MatchString(name)
		if gated {
			gatedSeen = true
		}
		if !inBase {
			tb.Row(name, "-", cur[name].NsPerOp, "new", mark(gated))
			continue
		}
		delta := (cur[name].NsPerOp/b.NsPerOp - 1) * 100
		tb.Row(name, b.NsPerOp, cur[name].NsPerOp, fmt.Sprintf("%+.1f", delta), mark(gated))
		if gated && delta > thresholdPct {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%, threshold +%.0f%%)",
					name, b.NsPerOp, cur[name].NsPerOp, delta, thresholdPct))
		}
	}
	// Baseline entries that the run never exercised would otherwise
	// vanish from the table — a renamed or deleted benchmark silently
	// un-gates itself. Every baseline name must appear in the run.
	var missing []string
	for name := range base.Benchmarks {
		if _, ok := cur[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		tb.Row(name, base.Benchmarks[name].NsPerOp, "-", "MISSING", mark(gateRE.MatchString(name)))
	}
	fmt.Print(tb)

	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: %d baseline benchmark(s) absent from this run (renamed or deleted? update %s):\n",
			len(missing), baseline)
		for _, name := range missing {
			fmt.Fprintln(os.Stderr, "  "+name)
		}
		return 1
	}
	if !gatedSeen {
		fmt.Fprintf(os.Stderr, "benchtab: no benchmark matched gate %q — the perf gate would be vacuous\n", gate)
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: %d gated regression(s) vs %s:\n", len(regressions), baseline)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		return 1
	}
	fmt.Printf("no gated regression vs %s (gate %q, threshold +%.0f%%)\n", baseline, gate, thresholdPct)
	return 0
}

func readSnapshot(path string) (BenchSnapshot, error) {
	var s BenchSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return ""
}
