package engine

import (
	"math"

	"circuitql/internal/obs"
)

// Families renders the snapshot as metric families for an
// obs.Registry — every family the engine exports. Register a live feed
// with
//
//	reg.Register(func() []obs.Family { return e.Metrics().Families() })
func (m Metrics) Families() []obs.Family {
	counter := func(name, help string, v int64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	gauge := func(name, help string, v int64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	attempts := obs.Family{Name: "circuitql_eval_tier_attempts_total", Help: "Evaluation-tier attempts.", Type: obs.TypeCounter}
	served := obs.Family{Name: "circuitql_eval_tier_served_total", Help: "Evaluations answered per tier.", Type: obs.TypeCounter}
	fallbacks := obs.Family{Name: "circuitql_eval_tier_fallbacks_total", Help: "Serves that degraded past an earlier tier.", Type: obs.TypeCounter}
	for _, tc := range m.Tiers {
		lbl := []obs.Label{{Name: "tier", Value: tc.Tier}}
		attempts.Samples = append(attempts.Samples, obs.Sample{Labels: lbl, Value: float64(tc.Attempts)})
		served.Samples = append(served.Samples, obs.Sample{Labels: lbl, Value: float64(tc.Served)})
		fallbacks.Samples = append(fallbacks.Samples, obs.Sample{Labels: lbl, Value: float64(tc.Fallbacks)})
	}

	admitted := obs.Family{Name: "circuitql_qos_admitted_total",
		Help: "Requests admitted to an admission lane.", Type: obs.TypeCounter}
	shed := obs.Family{Name: "circuitql_qos_shed_total",
		Help: "Requests shed by admission control, by lane and reason.", Type: obs.TypeCounter}
	queue := obs.Family{Name: "circuitql_qos_lane_queue", Help: "Requests queued per admission lane.", Type: obs.TypeGauge}
	depth := obs.Family{Name: "circuitql_qos_lane_queue_capacity", Help: "Queue capacity per admission lane.", Type: obs.TypeGauge}
	inflight := obs.Family{Name: "circuitql_qos_lane_in_flight", Help: "Requests being processed per admission lane.", Type: obs.TypeGauge}
	for l, g := range m.Lanes {
		lbl := []obs.Label{{Name: "lane", Value: g.Lane}}
		admitted.Samples = append(admitted.Samples, obs.Sample{Labels: lbl, Value: float64(m.Admitted[l])})
		for r, v := range m.Shed[l] {
			shed.Samples = append(shed.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "lane", Value: g.Lane}, {Name: "reason", Value: shedReason(r).String()}},
				Value:  float64(v),
			})
		}
		queue.Samples = append(queue.Samples, obs.Sample{Labels: lbl, Value: float64(g.Queued)})
		depth.Samples = append(depth.Samples, obs.Sample{Labels: lbl, Value: float64(g.Depth)})
		inflight.Samples = append(inflight.Samples, obs.Sample{Labels: lbl, Value: float64(g.InFlight)})
	}
	deadline := obs.Family{Name: "circuitql_qos_deadline_exceeded_total",
		Help: "Requests whose deadline expired, by pipeline stage.", Type: obs.TypeCounter}
	for s, v := range m.Deadline {
		deadline.Samples = append(deadline.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "stage", Value: deadlineStage(s).String()}}, Value: float64(v)})
	}
	batchSizes := obs.Family{Name: "circuitql_qos_vm_batch_size_total",
		Help: "Coalesced vm batch dispatches by occupancy bucket.", Type: obs.TypeCounter}
	for i, v := range m.BatchSizes {
		batchSizes.Samples = append(batchSizes.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "size", Value: BatchBucketLabel(i)}}, Value: float64(v)})
	}
	level := int64(0)
	if m.Critical {
		level = 2
	}

	return []obs.Family{
		counter("circuitql_engine_requests_total", "Requests processed by the engine.", m.Requests),
		gauge("circuitql_engine_in_flight", "Requests currently being processed.", m.InFlight),
		counter("circuitql_engine_failed_total", "Requests that returned an error.", m.Failed),
		counter("circuitql_plan_cache_hits_total", "Requests served from a cached plan.", m.Hits),
		counter("circuitql_plan_cache_misses_total", "Requests that compiled or joined a compile flight.", m.Misses),
		counter("circuitql_plan_cache_evictions_total", "Plans evicted to stay under the gate budget.", m.Evictions),
		gauge("circuitql_plan_cache_plans", "Plans currently cached.", int64(m.CachedPlans)),
		gauge("circuitql_plan_cache_gates", "Summed gate count of cached plans.", m.CachedGates),
		counter("circuitql_engine_compiles_total", "Compiles actually executed (post singleflight dedup).", m.Compiles),
		counter("circuitql_engine_compile_errors_total", "Compiles that failed.", m.CompileErrors),
		attempts, served, fallbacks,
		gauge("circuitql_plan_store_plans", "Plans currently resident in the persistent store.", m.StorePlans),
		counter("circuitql_plan_store_hits_total", "Plan loads answered from the persistent store.", m.StoreHits),
		counter("circuitql_plan_store_misses_total", "Plan lookups with no stored artifact.", m.StoreMisses),
		counter("circuitql_plan_store_writes_total", "Plan artifacts written to the persistent store.", m.StoreWrites),
		counter("circuitql_plan_store_corrupt_total", "Plan artifacts quarantined as corrupt.", m.StoreCorrupt),
		counter("circuitql_plan_store_read_bytes_total", "Bytes read from the persistent store.", m.StoreBytesRead),
		counter("circuitql_plan_store_written_bytes_total", "Bytes written to the persistent store.", m.StoreBytesWritten),
		admitted, shed, deadline, queue, depth, inflight,
		gauge("circuitql_qos_degradation_level", "Current lane-load level (0 normal, 2 critical).", level),
		counter("circuitql_qos_vm_batches_total", "Coalesced vm batch dispatches.", m.Batches),
		counter("circuitql_qos_vm_batched_requests_total", "Requests served through coalesced vm batches.", m.BatchedRequests),
		batchSizes,
		m.CompileLatency.family("circuitql_engine_compile_duration_seconds",
			"Latency of plan compilation (one observation per executed compile)."),
		m.EvalLatency.family("circuitql_engine_eval_duration_seconds",
			"Latency of successful request evaluation."),
	}
}

// family converts the power-of-two-microsecond histogram into a
// cumulative Prometheus histogram in seconds: bucket 0 is ≤ 1µs and
// bucket i (i ≥ 1) covers [2^{i-1}, 2^i) µs, so its upper edge is
// 2^i µs.
func (h LatencyHistogram) family(name, help string) obs.Family {
	buckets := make([]obs.HistBucket, 0, len(h.Counts)+1)
	cum := int64(0)
	for i, c := range h.Counts {
		cum += c
		edgeUS := 1.0
		if i > 0 {
			edgeUS = math.Exp2(float64(i))
		}
		buckets = append(buckets, obs.HistBucket{UpperBound: edgeUS / 1e6, Count: cum})
	}
	buckets = append(buckets, obs.HistBucket{UpperBound: math.Inf(+1), Count: cum})
	return obs.Family{
		Name: name, Help: help, Type: obs.TypeHistogram,
		Samples: []obs.Sample{{
			Buckets: buckets,
			Sum:     float64(h.SumMicros) / 1e6,
			Count:   h.Count,
		}},
	}
}
