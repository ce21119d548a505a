package main

import (
	"math"
	"sort"
)

// rep is what one repetition of a workload measured. Latencies are kept
// as exact samples (no histogram buckets) so a 10 % move is resolvable.
type rep struct {
	// OK and Failed partition the attempts: a response that is not OK,
	// has the wrong row count or was not served by the vm tier is
	// failed, counts against attempts and contributes no latency.
	OK, Failed int
	// TierNotVM counts the failed responses whose only fault may be the
	// tier: a silent fallback to the (faster) RAM join must never read
	// as a speed-up.
	TierNotVM int
	// Seconds is the measured wall time of the repetition.
	Seconds float64
	// LatMs holds one client-side latency per OK response. Closed loop:
	// send→reply. Open loop: due time→reply.
	LatMs []float64
	// AtS holds, per OK response, when its request was sent (closed
	// loop) or due (open loop), in seconds since the repetition began:
	// what assigns the sample to a window.
	AtS []float64
	// OutsideUs holds, per OK response, the client latency minus the
	// daemon's own compile+eval time.
	OutsideUs []float64
	// MaxLateMs is how late the open-loop sender ran at worst.
	MaxLateMs float64
}

// metric is one reported number with its noise floor beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max−min)/median over the repetitions; 0 when the run
	// had a single repetition or the metric has no per-rep value.
	Spread float64 `json:"spread,omitempty"`
	// Reps are the per-repetition values behind Spread.
	Reps []float64 `json:"reps,omitempty"`
}

// sortedCopy returns vals ascending without disturbing the caller's order.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// rankOf is the nearest-rank index (1-based) of percentile p among n
// samples. Multiplying before dividing keeps whole ranks exact (0.9×100
// is not 90 in floating point).
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the p-th percentile of an ascending slice by
// nearest rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// tailPercentiles are the tails a report may print, highest first.
var tailPercentiles = []float64{99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the number is one or two outliers, not a tail.
const minBeyond = 10

// topPercentile is the highest tail percentile with at least minBeyond
// samples beyond it among n, or 0 when even p90 is too thin.
func topPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// spread is (max−min)/median: the share by which repetitions of the
// same measurement disagree.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := sortedCopy(vals)
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / med
}

// window is one slice of a repetition, judged on its own samples.
type window struct {
	p50, p90, p95 float64 // ms, over the requests sent (or due) in the slice
	// rps is those requests per second of the time they cover, from the
	// first one sent to the last one answered: on a closed loop, where
	// each client's requests follow one another without a gap, that is
	// the slice's throughput without rounding to whole requests.
	rps float64
}

// windows cuts a repetition into slices of length seconds by each
// sample's AtS. There are floor(Seconds/length) of them, at least one,
// and the last takes the remainder, so every sample is in exactly one
// and none is shorter than length. A slice no OK request fell into is
// left out. length <= 0 makes the repetition one slice.
func (r rep) windows(length float64) []window {
	n := 1
	if length > 0 {
		n = max(1, int(r.Seconds/length))
	}
	type slice struct {
		lat        []float64
		first, end float64 // seconds since the repetition began
	}
	slices := make([]slice, n)
	for i, l := range r.LatMs {
		at := 0.0
		if i < len(r.AtS) {
			at = r.AtS[i]
		}
		k := 0
		if n > 1 {
			k = min(max(int(at/length), 0), n-1)
		}
		sl := &slices[k]
		if len(sl.lat) == 0 || at < sl.first {
			sl.first = at
		}
		sl.end = max(sl.end, at+l/1000)
		sl.lat = append(sl.lat, l)
	}
	var out []window
	for _, sl := range slices {
		if len(sl.lat) == 0 {
			continue
		}
		sort.Float64s(sl.lat)
		w := window{p50: percentile(sl.lat, 50), p90: percentile(sl.lat, 90), p95: percentile(sl.lat, 95)}
		if sl.end > sl.first {
			w.rps = float64(len(sl.lat)) / (sl.end - sl.first)
		}
		out = append(out, w)
	}
	return out
}

// quietPercentile is where, counted from the best window, the reported
// value sits: the best decile.
const quietPercentile = 10

// quiet is the value at the best decile of vals: the 10th percentile
// when lower is better, the 90th when higher is.
func quiet(vals []float64, higherIsBetter bool) float64 {
	s := sortedCopy(vals)
	if higherIsBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return percentile(s, quietPercentile)
}

// summary is a workload's repetitions reduced to its reported numbers.
type summary struct {
	Ops, Failed, TierNotVM int
	// Samples is how many latencies the repetitions hold together; Top
	// is topPercentile(Samples): percentiles above it are withheld from
	// the report.
	Samples int
	Top     float64
	// PlainP50Ms is the median of all latencies pooled, windows ignored:
	// what trace.coverage is judged against, because the traced layer
	// times it is compared with are plain medians too.
	PlainP50Ms float64
	Metrics    map[string]metric
}

// summarize reduces the repetitions of one workload. p50_ms, p90_ms,
// p95_ms and rps are quiet-window values: every repetition is cut into
// windows of the given length, each window gets its own percentiles over
// its own exact samples and its own throughput, and the reported number
// is the best decile of all the windows of the run; the per-repetition
// values beside it are each repetition's own best decile.
//
// The reason is the box. Interference on a shared host only ever slows
// a window down, and it comes and goes within seconds: on one 100 s run
// the *median* window p50 of the five 20 s repetitions spanned 26 % of
// its median while their best deciles spanned 9 %. The best decile is a
// property of the program; the median is mostly a property of the
// neighbours. Both move one for one with a change to the code.
//
// On the open loop the offered rate fixes every window's throughput, so
// there rps stays the median over the repetitions of verified replies
// per measured second: the offered rate unless the daemon falls behind.
func summarize(reps []rep, windowS float64, openLoop bool) summary {
	var s summary
	var outside, lat []float64
	var maxLate float64
	perRep := make([][]window, len(reps))
	var all []window
	for i, r := range reps {
		s.Ops += r.OK + r.Failed
		s.Failed += r.Failed
		s.TierNotVM += r.TierNotVM
		s.Samples += len(r.LatMs)
		outside = append(outside, r.OutsideUs...)
		lat = append(lat, r.LatMs...)
		maxLate = math.Max(maxLate, r.MaxLateMs)
		perRep[i] = r.windows(windowS)
		all = append(all, perRep[i]...)
	}
	s.Top = topPercentile(s.Samples)
	s.PlainP50Ms = median(lat)

	quietOf := func(unit string, higherIsBetter bool, f func(window) float64) metric {
		of := func(ws []window) float64 {
			vals := make([]float64, len(ws))
			for i, w := range ws {
				vals[i] = f(w)
			}
			return quiet(vals, higherIsBetter)
		}
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = of(perRep[i])
		}
		return metric{Value: of(all), Unit: unit, Spread: spread(vals), Reps: vals}
	}
	medianOf := func(unit string, f func(i int) float64) metric {
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = f(i)
		}
		return metric{Value: median(vals), Unit: unit, Spread: spread(vals), Reps: vals}
	}
	s.Metrics = map[string]metric{
		"p50_ms": quietOf("ms", false, func(w window) float64 { return w.p50 }),
		"p90_ms": quietOf("ms", false, func(w window) float64 { return w.p90 }),
		"rps":    quietOf("1/s", true, func(w window) float64 { return w.rps }),
		"p95_ms": quietOf("ms", false, func(w window) float64 { return w.p95 }),
		// p99 is informational: the whole repetition's, median over them.
		"loadgen.p99_ms":         medianOf("ms", func(i int) float64 { return percentile(sortedCopy(reps[i].LatMs), 99) }),
		"wire.outside_engine_us": {Value: median(outside), Unit: "us"},
		"loadgen.max_late_ms":    {Value: maxLate, Unit: "ms"},
	}
	if openLoop {
		s.Metrics["rps"] = medianOf("1/s", func(i int) float64 {
			if reps[i].Seconds == 0 {
				return 0
			}
			return float64(reps[i].OK) / reps[i].Seconds
		})
	}
	return s
}
