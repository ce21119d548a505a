package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload × metric comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is the share of a by which b is worse: positive is worse
// whichever way the metric points.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every repetition of b beats every
// repetition of a.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// verdict judges b against a under the metric's bound. A move past the
// bound for the worse is "worse" however noisy the runs; inside the
// bound, a repetition spread wider than the bound means the runs cannot
// tell, so the metric is "unresolved" rather than unchanged — unless
// every repetition of b beats every repetition of a.
func verdict(def metricDef, a, b metric) string {
	w := worsening(def, a.Value, b.Value)
	switch {
	case w > def.Bound:
		return verdictWorse
	case a.Spread > def.Bound || b.Spread > def.Bound:
		if allBetter(def, a.Reps, b.Reps) {
			return verdictBetter
		}
		return verdictUnresolved
	case w < -def.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// compare prints one row per workload × end-to-end metric present in
// both results and reports whether anything regressed: a "worse"
// verdict, or a higher share of failed operations.
func compare(w io.Writer, a, b *result) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tspread a\tspread b\tverdict")
	byName := map[string]workloadResult{}
	for _, wb := range b.Workloads {
		byName[wb.Name] = wb
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, def := range reported {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(def, ma, mb)
			regressed = regressed || v == verdictWorse
			ratio := 0.0
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3fx of %.4f\t%.2f\t%.1f%%\t%.1f%%\t%s\n",
				wa.Name, def.Name, ma.Value, def.Unit, mb.Value, def.Unit, ratio, ma.Value, def.Bound, 100*ma.Spread, 100*mb.Spread, v)
		}
		shareA, shareB := failedShare(wa), failedShare(wb)
		failedVerdict := verdictWithin
		if shareB > shareA {
			failedVerdict = verdictWorse
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t\t\t\t\t%s\n", wa.Name, wa.Failed, wa.Ops, wb.Failed, wb.Ops, failedVerdict)
	}
	tw.Flush() //nolint:errcheck // w is stdout or a test buffer
	return regressed
}

func failedShare(w workloadResult) float64 {
	if w.Ops == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Ops)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json")
		return 2
	}
	var results [2]*result
	for i, path := range args {
		var err error
		if results[i], err = readResult(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	if compare(os.Stdout, results[0], results[1]) {
		return 1
	}
	return 0
}
