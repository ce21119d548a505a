package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{"p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"rps", "1/s", "higher", 0.10}
	tight := func(v float64) metric { return metric{Value: v, Spread: 0.02, Reps: []float64{v * 0.99, v, v * 1.01}} }
	noisy := func(v float64) metric { return metric{Value: v, Spread: 0.30, Reps: []float64{v * 0.85, v, v * 1.15}} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metric
		want string
	}{
		{"same", lower, tight(1), tight(1.05), verdictWithin},
		{"slower past the bound", lower, tight(1), tight(1.2), verdictWorse},
		{"faster past the bound", lower, tight(1), tight(0.8), verdictBetter},
		{"rps down", higher, tight(1000), tight(850), verdictWorse},
		{"rps up", higher, tight(1000), tight(1200), verdictBetter},
		{"noise hides a small move", lower, noisy(1), tight(1.05), verdictUnresolved},
		{"noise does not hide a regression", lower, noisy(1), noisy(1.5), verdictWorse},
		{"noisy but every rep better", lower, noisy(1), tight(0.5), verdictBetter},
		{"noisy and overlapping", lower, noisy(1), noisy(0.85), verdictUnresolved},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	mk := func(p50 float64, failed int) *result {
		return &result{Workloads: []workloadResult{{
			Name: "hot-eval", Ops: 1000, Failed: failed,
			EndToEnd: map[string]metric{
				"p50_ms": {Value: p50, Unit: "ms", Spread: 0.03, Reps: []float64{p50, p50 * 1.03}},
				"rps":    {Value: 2000, Unit: "1/s", Spread: 0.03, Reps: []float64{2000, 2060}},
			},
		}}}
	}
	var buf bytes.Buffer
	if compare(&buf, mk(1, 0), mk(1.02, 0)) {
		t.Errorf("a 2%% move within the bound reported as a regression:\n%s", buf.String())
	}
	for _, want := range []string{"hot-eval", "p50_ms", "rps", "1.020x of 1.0000", "0.25", "within", "failed"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "p90_ms") {
		t.Errorf("a metric absent from both results has a row:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, mk(1, 0), mk(1.3, 0)) || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("a 30%% slowdown passed:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, mk(1, 0), mk(1, 3)) {
		t.Errorf("a higher failed share passed:\n%s", buf.String())
	}
}
