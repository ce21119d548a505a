package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func seq(from, to int) []float64 {
	var out []float64
	for i := from; i <= to; i++ {
		out = append(out, float64(i))
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1, 100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The highest percentile reported is the one with at least ten samples
// beyond it: cold-compile's ~190 samples carry p90 and not p95.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {190, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want (12-9)/10", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one repetition = %v, want 0", got)
	}
}

// at spreads n samples evenly over seconds [from, to).
func at(n int, from, to float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = from + (to-from)*float64(i)/float64(n)
	}
	return out
}

// A repetition is cut into whole windows, the last taking the
// remainder; each has its own percentiles, and its throughput is its
// requests over the time they cover, first sent to last answered.
func TestWindows(t *testing.T) {
	r := rep{
		Seconds: 2.3, // two windows of 1 s; the second takes the 0.3 s left
		LatMs:   append(seq(1, 100), seq(101, 150)...),
		AtS:     append(at(100, 0, 1), at(50, 1, 2.2)...),
	}
	ws := r.windows(1)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0].p50 != 50 || ws[0].p90 != 90 || ws[0].p95 != 95 {
		t.Errorf("first window p50/p90/p95 = %v/%v/%v, want 50/90/95", ws[0].p50, ws[0].p90, ws[0].p95)
	}
	if ws[1].p50 != 125 {
		t.Errorf("second window p50 = %v, want 125", ws[1].p50)
	}
	// 100 requests from 0 s until the last, sent at 0.99 s, is answered 100 ms later.
	if want := 100 / 1.09; math.Abs(ws[0].rps-want) > 1e-9 {
		t.Errorf("first window rps = %v, want %v", ws[0].rps, want)
	}
	if one := r.windows(0); len(one) != 1 || one[0].p50 != 75 {
		t.Errorf("windows(0) = %+v, want the whole repetition as one window", one)
	}
	// A window nothing was sent in is left out, not reported as zero.
	gap := rep{Seconds: 3, LatMs: []float64{5, 7}, AtS: []float64{0.5, 2.5}}
	if ws := gap.windows(1); len(ws) != 2 || ws[0].p50 != 5 || ws[1].p50 != 7 {
		t.Errorf("windows around a gap = %+v", ws)
	}
}

func TestQuiet(t *testing.T) {
	vals := seq(1, 20)
	if got := quiet(vals, false); got != 2 {
		t.Errorf("best decile of 1..20, lower better = %v, want 2", got)
	}
	if got := quiet(vals, true); got != 19 {
		t.Errorf("best decile of 1..20, higher better = %v, want 19", got)
	}
	if got := quiet([]float64{7, 3}, false); got != 3 {
		t.Errorf("best decile of two = %v, want the better one", got)
	}
}

// The reported latency and throughput are the best decile of all the
// run's windows, so disturbed windows — even most of them — move
// nothing; the per-repetition values and their spread show they were
// there. Counts cover every repetition.
func TestSummarizeQuietWindows(t *testing.T) {
	// Ten windows of 10 requests per repetition. The window latency is
	// flat within a window: 20 ms in the two quiet windows of the first
	// repetition, 30 ms in the rest of it, 40 ms throughout the second.
	mk := func(lat func(w int) float64) rep {
		r := rep{OK: 100, Seconds: 10, AtS: at(100, 0, 10)}
		for i := 0; i < 100; i++ {
			r.LatMs = append(r.LatMs, lat(i/10))
		}
		return r
	}
	reps := []rep{
		mk(func(w int) float64 {
			if w == 3 || w == 7 {
				return 20
			}
			return 30
		}),
		mk(func(int) float64 { return 40 }),
	}
	reps[1].Failed, reps[1].TierNotVM = 5, 2
	s := summarize(reps, 1, false)
	if s.Ops != 205 || s.Failed != 5 || s.TierNotVM != 2 || s.Samples != 200 {
		t.Fatalf("ops=%d failed=%d notvm=%d samples=%d", s.Ops, s.Failed, s.TierNotVM, s.Samples)
	}
	p50 := s.Metrics["p50_ms"]
	if p50.Value != 20 {
		t.Errorf("p50 = %v, want 20: the second best of 20 windows", p50.Value)
	}
	if len(p50.Reps) != 2 || p50.Reps[0] != 20 || p50.Reps[1] != 40 {
		t.Errorf("per-rep p50 = %v, want [20 40]", p50.Reps)
	}
	if want := (40.0 - 20.0) / 20.0; p50.Spread != want {
		t.Errorf("p50 spread = %v, want %v", p50.Spread, want)
	}
	if got := s.Metrics["p90_ms"].Value; got != 20 {
		t.Errorf("p90 = %v, want 20", got)
	}
	// A quiet window's ten requests cover 0.9 s of sends plus 20 ms.
	if got, want := s.Metrics["rps"].Value, 10/0.92; math.Abs(got-want) > 1e-9 {
		t.Errorf("rps = %v, want %v", got, want)
	}
	if s.Top != 95 {
		t.Errorf("top percentile of 200 samples = %v, want 95", s.Top)
	}
	// Coverage is judged against the plain median: 20 samples at 20 ms,
	// 80 at 30, 100 at 40.
	if s.PlainP50Ms != 30 {
		t.Errorf("plain p50 = %v, want 30", s.PlainP50Ms)
	}

	// Open loop: the schedule fixes each window's throughput, so rps is
	// verified replies per measured second, median over repetitions.
	// Failed replies are attempts, not throughput.
	reps[1].OK = 50
	if got := summarize(reps, 1, true).Metrics["rps"]; got.Value != 5 || got.Reps[0] != 10 {
		t.Errorf("open-loop rps = %+v, want median 5 of [10 5]", got)
	}
}

// With 190 samples the report refuses to print p95_ms.
func TestReportWithholdsThinP95(t *testing.T) {
	s := summarize([]rep{{OK: 190, Seconds: 38, LatMs: seq(1, 190)}}, 0, false)
	s.Metrics["setup_s"] = metric{Value: 1, Unit: "s"}
	var wr workloadResult
	wr.addUntraced(s)
	if _, ok := wr.EndToEnd["p95_ms"]; ok {
		t.Error("p95_ms reported with 9 samples beyond it")
	}
	if _, ok := wr.EndToEnd["p90_ms"]; !ok {
		t.Error("p90_ms missing")
	}
	var buf bytes.Buffer
	wr.print(&buf)
	if !strings.Contains(buf.String(), "p95_ms") || !strings.Contains(buf.String(), "withheld") {
		t.Errorf("report does not say p95_ms was withheld:\n%s", buf.String())
	}

	s = summarize([]rep{{OK: 200, Seconds: 40, LatMs: seq(1, 200)}}, 0, false)
	s.Metrics["setup_s"] = metric{Value: 1, Unit: "s"}
	wr = workloadResult{}
	wr.addUntraced(s)
	if _, ok := wr.EndToEnd["p95_ms"]; !ok {
		t.Error("p95_ms withheld with 10 samples beyond it")
	}
}
