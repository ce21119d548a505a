package qos

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"circuitql/internal/obs"
)

// ShedReason says why admission rejected a request.
type ShedReason int

// Shed reasons.
const (
	// ShedQueueFull: the classified lane's queue was at capacity.
	ShedQueueFull ShedReason = iota
	// ShedPriority: the lanes were at LevelCritical and the request's
	// priority was below normal.
	ShedPriority
	// ShedDraining: the engine was shutting down. Under a shedding
	// policy a draining replica rejects new work with a typed overload
	// error — "retry elsewhere" — rather than an input error.
	ShedDraining
	numShedReasons
)

// String names the reason for labels.
func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue_full"
	case ShedPriority:
		return "priority"
	case ShedDraining:
		return "draining"
	}
	return "unknown"
}

// DeadlineStage says where a request's deadline expired.
type DeadlineStage int

// Deadline stages, in request order.
const (
	// StageQueued: the deadline expired before a worker picked the
	// request up.
	StageQueued DeadlineStage = iota
	// StageCompile: it expired while waiting on (or leading) a compile
	// flight.
	StageCompile
	// StageOblivious / StageRAM: it expired during that tier's
	// evaluation.
	StageOblivious
	StageRAM
	numDeadlineStages
)

// String names the stage for labels.
func (s DeadlineStage) String() string {
	switch s {
	case StageQueued:
		return "queued"
	case StageCompile:
		return "compile"
	case StageOblivious:
		return "oblivious"
	case StageRAM:
		return "ram"
	}
	return "unknown"
}

// NumBatchBuckets sizes the coalesced-batch occupancy histogram:
// bucket 0 counts dispatches of exactly 1 request (no coalescing
// happened), bucket i (i ≥ 1) counts dispatches of (2^{i-1}, 2^i]
// requests, with the last bucket absorbing the tail.
const NumBatchBuckets = 8

// BatchBucketLabel names histogram bucket i for exposition: "1", "2",
// "le4", ..., "gt64".
func BatchBucketLabel(i int) string {
	switch {
	case i == 0:
		return "1"
	case i == 1:
		return "2"
	case i < NumBatchBuckets-1:
		return fmt.Sprintf("le%d", 1<<i)
	default:
		return fmt.Sprintf("gt%d", 1<<(NumBatchBuckets-2))
	}
}

// batchBucket maps a dispatch size onto its histogram bucket.
func batchBucket(size int) int {
	if size < 1 {
		size = 1
	}
	b := bits.Len(uint(size - 1)) // 1→0, 2→1, 3..4→2, 5..8→3, ...
	if b >= NumBatchBuckets {
		b = NumBatchBuckets - 1
	}
	return b
}

// Ledger counts admission and degradation decisions, lock-free. Every
// request is counted exactly once, as admitted or shed, at submission
// (admitted + shed == submissions); per-stage deadline failures are
// counted as they happen, so the exposed counters reconcile exactly
// with client-observed outcomes (the soak harness asserts this).
type Ledger struct {
	admitted [NumLanes]atomic.Int64
	shed     [NumLanes][numShedReasons]atomic.Int64
	deadline [numDeadlineStages]atomic.Int64
	tierSkip atomic.Int64

	batches     atomic.Int64
	batchedReqs atomic.Int64
	batchSizes  [NumBatchBuckets]atomic.Int64
}

// Admit counts one request entering lane's queue.
func (l *Ledger) Admit(lane Lane) { l.admitted[lane].Add(1) }

// Shed counts one request rejected from lane for reason.
func (l *Ledger) Shed(lane Lane, reason ShedReason) { l.shed[lane][reason].Add(1) }

// Deadline counts one request whose deadline expired at stage.
func (l *Ledger) Deadline(stage DeadlineStage) { l.deadline[stage].Add(1) }

// TierSkip counts one tier skipped because its estimated duration
// exceeded its share of the request's deadline.
func (l *Ledger) TierSkip() { l.tierSkip.Add(1) }

// Batch counts one coalesced vm dispatch covering size requests, so
// mean batch occupancy is BatchedRequests / Batches. The dispatch is
// also recorded in the batch-size histogram.
func (l *Ledger) Batch(size int) {
	l.batches.Add(1)
	l.batchedReqs.Add(int64(size))
	l.batchSizes[batchBucket(size)].Add(1)
}

// LaneStats is a point-in-time gauge set for one admission lane.
type LaneStats struct {
	Lane     string
	Queued   int // requests waiting in the lane queue
	Depth    int // queue capacity
	Workers  int // lane concurrency cap
	InFlight int // requests currently being processed by lane workers
}

// Snapshot is a consistent copy of the ledger plus live lane gauges and
// the current degradation level, ready for exposition.
type Snapshot struct {
	Admitted map[string]int64            // by lane
	Shed     map[string]map[string]int64 // by lane, then reason
	Deadline map[string]int64            // by stage
	TierSkip int64                       // tiers skipped for their deadline share
	Lanes    []LaneStats
	Level    Level

	// Batches / BatchedRequests describe vm batch coalescing: mean
	// occupancy is BatchedRequests / Batches. BatchSizes is the
	// dispatch-occupancy histogram; bucket i is labeled
	// BatchBucketLabel(i).
	Batches         int64
	BatchedRequests int64
	BatchSizes      [NumBatchBuckets]int64
}

// TotalShed sums shed counts across lanes and reasons.
func (s Snapshot) TotalShed() int64 {
	var n int64
	for _, by := range s.Shed {
		for _, v := range by {
			n += v
		}
	}
	return n
}

// TotalAdmitted sums admissions across lanes.
func (s Snapshot) TotalAdmitted() int64 {
	var n int64
	for _, v := range s.Admitted {
		n += v
	}
	return n
}

// TotalDeadline sums deadline failures across stages.
func (s Snapshot) TotalDeadline() int64 {
	var n int64
	for _, v := range s.Deadline {
		n += v
	}
	return n
}

// Snapshot copies the counters. Lanes and Level are the caller's to
// fill (the engine owns those gauges).
func (l *Ledger) Snapshot() Snapshot {
	s := Snapshot{
		Admitted:        make(map[string]int64, NumLanes),
		Shed:            make(map[string]map[string]int64, NumLanes),
		Deadline:        make(map[string]int64, numDeadlineStages),
		TierSkip:        l.tierSkip.Load(),
		Batches:         l.batches.Load(),
		BatchedRequests: l.batchedReqs.Load(),
	}
	for i := range l.batchSizes {
		s.BatchSizes[i] = l.batchSizes[i].Load()
	}
	for lane := Lane(0); lane < NumLanes; lane++ {
		s.Admitted[lane.String()] = l.admitted[lane].Load()
		by := make(map[string]int64, numShedReasons)
		for r := ShedReason(0); r < numShedReasons; r++ {
			by[r.String()] = l.shed[lane][r].Load()
		}
		s.Shed[lane.String()] = by
	}
	for st := DeadlineStage(0); st < numDeadlineStages; st++ {
		s.Deadline[st.String()] = l.deadline[st].Load()
	}
	return s
}

// Families renders the snapshot as metric families for an
// obs.Registry:
//
//	reg.Register(func() []obs.Family { return eng.QoS().Families() })
func (s Snapshot) Families() []obs.Family {
	admitted := obs.Family{Name: "circuitql_qos_admitted_total",
		Help: "Requests admitted to an admission lane.", Type: obs.TypeCounter}
	shed := obs.Family{Name: "circuitql_qos_shed_total",
		Help: "Requests shed by admission control, by lane and reason.", Type: obs.TypeCounter}
	deadline := obs.Family{Name: "circuitql_qos_deadline_exceeded_total",
		Help: "Requests whose deadline expired, by pipeline stage.", Type: obs.TypeCounter}
	degraded := obs.Family{Name: "circuitql_qos_degraded_total",
		Help: "Degradation measures taken, by action.", Type: obs.TypeCounter,
		Samples: []obs.Sample{{Labels: []obs.Label{{Name: "action", Value: "tier_skip"}}, Value: float64(s.TierSkip)}}}
	queue := obs.Family{Name: "circuitql_qos_lane_queue", Help: "Requests queued per admission lane.", Type: obs.TypeGauge}
	depth := obs.Family{Name: "circuitql_qos_lane_queue_capacity", Help: "Queue capacity per admission lane.", Type: obs.TypeGauge}
	inflight := obs.Family{Name: "circuitql_qos_lane_in_flight", Help: "Requests being processed per admission lane.", Type: obs.TypeGauge}
	batches := obs.Family{Name: "circuitql_qos_vm_batches_total",
		Help: "Coalesced vm batch dispatches.", Type: obs.TypeCounter,
		Samples: []obs.Sample{{Value: float64(s.Batches)}}}
	batchedReqs := obs.Family{Name: "circuitql_qos_vm_batched_requests_total",
		Help: "Requests served through coalesced vm batches.", Type: obs.TypeCounter,
		Samples: []obs.Sample{{Value: float64(s.BatchedRequests)}}}
	batchSizes := obs.Family{Name: "circuitql_qos_vm_batch_size_total",
		Help: "Coalesced vm batch dispatches by occupancy bucket.", Type: obs.TypeCounter}
	for i, v := range s.BatchSizes {
		batchSizes.Samples = append(batchSizes.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "size", Value: BatchBucketLabel(i)}},
			Value:  float64(v),
		})
	}
	level := obs.Family{Name: "circuitql_qos_degradation_level",
		Help: "Current lane-load level (0 normal, 2 critical).", Type: obs.TypeGauge,
		Samples: []obs.Sample{{Value: float64(s.Level)}}}

	for lane := Lane(0); lane < NumLanes; lane++ {
		name := lane.String()
		lbl := []obs.Label{{Name: "lane", Value: name}}
		admitted.Samples = append(admitted.Samples, obs.Sample{Labels: lbl, Value: float64(s.Admitted[name])})
		for r := ShedReason(0); r < numShedReasons; r++ {
			shed.Samples = append(shed.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "lane", Value: name}, {Name: "reason", Value: r.String()}},
				Value:  float64(s.Shed[name][r.String()]),
			})
		}
	}
	for st := DeadlineStage(0); st < numDeadlineStages; st++ {
		deadline.Samples = append(deadline.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "stage", Value: st.String()}},
			Value:  float64(s.Deadline[st.String()]),
		})
	}
	for _, ls := range s.Lanes {
		lbl := []obs.Label{{Name: "lane", Value: ls.Lane}}
		queue.Samples = append(queue.Samples, obs.Sample{Labels: lbl, Value: float64(ls.Queued)})
		depth.Samples = append(depth.Samples, obs.Sample{Labels: lbl, Value: float64(ls.Depth)})
		inflight.Samples = append(inflight.Samples, obs.Sample{Labels: lbl, Value: float64(ls.InFlight)})
	}
	return []obs.Family{admitted, shed, deadline, degraded, batches, batchedReqs, batchSizes, queue, depth, inflight, level}
}
