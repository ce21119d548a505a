package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// latBuckets is the number of power-of-two latency buckets: bucket 0
// holds sub-microsecond observations and bucket i (i ≥ 1) holds
// [2^{i-1}, 2^i) microseconds, with the last bucket absorbing the tail
// (≥ 2^30 µs ≈ 18 minutes).
const latBuckets = 32

// latencyHist is a lock-free fixed-bucket histogram of durations.
type latencyHist struct {
	counts [latBuckets]atomic.Int64
	n      atomic.Int64
	sumUS  atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	b := 0
	if us > 0 {
		b = bits.Len64(uint64(us))
		if b >= latBuckets {
			b = latBuckets - 1
		}
	}
	h.counts[b].Add(1)
	h.n.Add(1)
	h.sumUS.Add(us)
}

func (h *latencyHist) snapshot() LatencyHistogram {
	var s LatencyHistogram
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.n.Load()
	s.SumMicros = h.sumUS.Load()
	return s
}

// LatencyHistogram is a point-in-time copy of a latency histogram:
// Counts[0] observations were sub-microsecond, Counts[i] (i ≥ 1)
// observations fell in [2^{i-1}, 2^i) microseconds, and the last
// bucket absorbs the tail.
type LatencyHistogram struct {
	Counts    [latBuckets]int64
	Count     int64
	SumMicros int64
}

// Mean returns the average observed latency.
func (h LatencyHistogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumMicros/h.Count) * time.Microsecond
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the bucket holding the q·Count-th observation.
func (h LatencyHistogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			return time.Duration(1<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(1<<uint(latBuckets-1)) * time.Microsecond
}

// String renders the non-empty buckets compactly, e.g.
// "n=12 mean=1.5ms p50≤2ms p99≤8ms".
func (h LatencyHistogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50≤%v p99≤%v",
		h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}

// TierCounts is one tier's ladder activity: attempts, serves, and
// fallbacks — serves that came after an earlier entry in the request's
// Attempts (a failed attempt, or a RAM-pinned entry's compile error).
type TierCounts struct {
	Tier                        string
	Attempts, Served, Fallbacks int64
}

// LaneGauges is one admission lane's live occupancy.
type LaneGauges struct {
	Lane                    string
	Queued, Depth, InFlight int
}

// Metrics is a point-in-time snapshot of the engine's counters.
type Metrics struct {
	// Plan-cache behaviour.
	Hits      int64 // requests served from a cached plan
	Misses    int64 // requests that had to compile (or join a compile)
	Evictions int64 // plans evicted to stay under the gate budget

	// Compilation.
	Compiles      int64 // compiles actually executed (post-dedup)
	CompileErrors int64 // compiles that failed

	// Requests.
	Requests int64 // requests admitted to a lane (the sum of Admitted)
	InFlight int64 // requests currently being processed
	Failed   int64 // requests that returned an error

	// Admission, per lane (hit, miss): every submission is counted once,
	// as admitted or as shed (queue_full, priority, draining). Lanes are
	// the live queue gauges. Critical: under ShedAdaptive, a lane's queue
	// is at least three-quarters full, so below-normal priorities are
	// shed (degradation level 2; 0 otherwise).
	Admitted [numLanes]int64
	Shed     [numLanes][numShedReasons]int64
	Lanes    [numLanes]LaneGauges
	Critical bool

	// Deadline failures by the stage the request had reached (queued,
	// compile, oblivious, ram).
	Deadline [numDeadlineStages]int64

	// Per-tier ladder counts, in degradation order (vm, ram).
	Tiers [numTiers]TierCounts

	// vm batch coalescing (zero unless Config.BatchMaxSize > 1): mean
	// occupancy is BatchedRequests / Batches; BatchSizes[i] counts the
	// dispatches in bucket BatchBucketLabel(i).
	Batches         int64
	BatchedRequests int64
	BatchSizes      [NumBatchBuckets]int64

	// Cache occupancy.
	CachedPlans int
	CachedGates int64

	// Persistent plan store (zero unless Config.Store is set), taken from
	// the store's own ledger.
	StorePlans        int64 // plans currently resident on disk
	StoreHits         int64 // GetPlan calls answered from disk
	StoreMisses       int64 // GetPlan calls with no artifact
	StoreWrites       int64 // artifacts written (PutPlan, post-dedup)
	StoreCorrupt      int64 // artifacts quarantined as corrupt
	StoreBytesRead    int64
	StoreBytesWritten int64

	// Latency distributions.
	CompileLatency LatencyHistogram
	EvalLatency    LatencyHistogram
}

// String renders the snapshot as a few aligned lines for logs and the
// circuitd shutdown report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d in-flight=%d failed=%d\n", m.Requests, m.InFlight, m.Failed)
	fmt.Fprintf(&b, "cache: hits=%d misses=%d evictions=%d plans=%d gates=%d\n",
		m.Hits, m.Misses, m.Evictions, m.CachedPlans, m.CachedGates)
	fmt.Fprintf(&b, "compiles=%d errors=%d latency: %v\n", m.Compiles, m.CompileErrors, m.CompileLatency)
	fmt.Fprintf(&b, "tiers: vm=%d ram=%d\n", m.Tiers[tierVM].Served, m.Tiers[tierRAM].Served)
	if m.StorePlans > 0 || m.StoreHits > 0 || m.StoreWrites > 0 {
		fmt.Fprintf(&b, "store: plans=%d hits=%d misses=%d writes=%d corrupt=%d read=%dB written=%dB\n",
			m.StorePlans, m.StoreHits, m.StoreMisses, m.StoreWrites,
			m.StoreCorrupt, m.StoreBytesRead, m.StoreBytesWritten)
	}
	fmt.Fprintf(&b, "eval latency: %v", m.EvalLatency)
	return b.String()
}
