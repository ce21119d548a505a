package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// shapeReq builds a distinct full-CQ request by salting the DC set with
// a per-shape degree bound, minting distinct fingerprints from one
// query text (the soak harness's trick).
func shapeReq(t *testing.T, salt int) Request {
	t.Helper()
	src := "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
	q, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := workload.ForQuery(q, int64(100+salt), 8)
	dcs, err := query.DeriveDC(q, db)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := query.ParseDC(q, fmt.Sprintf("R <= %d", 64+salt))
	if err != nil {
		t.Fatal(err)
	}
	dcs = append(dcs, extra...)
	return Request{Query: q, DCs: dcs, DB: db}
}

// TestShardIndexStable: fingerprint→shard assignment is a pure function
// of the fingerprint bytes — the same fingerprint maps to the same
// shard in any process at a fixed shard count, and the index is always
// in range. The expected value is recomputed here from the documented
// formula, so an accidental change to the routing function fails this
// test rather than silently reshuffling every cache after a deploy.
func TestShardIndexStable(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for i := 0; i < 64; i++ {
			fp := query.Fingerprint(sha256.Sum256([]byte{byte(i)}))
			got := ShardIndex(fp, n)
			want := 0
			if n > 1 {
				want = int(binary.BigEndian.Uint64(fp[:8]) % uint64(n))
			}
			if got != want {
				t.Fatalf("ShardIndex(fp%d, %d) = %d, want %d", i, n, got, want)
			}
			if got < 0 || got >= n {
				t.Fatalf("ShardIndex(fp%d, %d) = %d out of range", i, n, got)
			}
		}
	}
}

// TestShardRoutingStableAcrossRestarts: two engine instances with the
// same shard count route every request to the same shard — the per-
// shard miss counters line up exactly, so a restarted replica's warm
// traffic lands where its predecessor's plans were.
func TestShardRoutingStableAcrossRestarts(t *testing.T) {
	const shards = 4
	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = shapeReq(t, i)
	}
	place := func() []int64 {
		e := New(Config{Shards: shards, Workers: 2})
		defer e.Close()
		for _, r := range reqs {
			if res := e.Serve(context.Background(), r); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		misses := make([]int64, shards)
		for i, m := range e.ShardMetrics() {
			misses[i] = m.Misses
		}
		return misses
	}
	first, second := place(), place()
	var spread int
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("shard %d served %d misses on first run, %d on second", i, first[i], second[i])
		}
		if first[i] > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("12 distinct fingerprints landed on %d shard(s); routing is not spreading", spread)
	}
}

// TestShardedExactlyOnceCompile: under concurrent same-shape traffic on
// a multi-shard engine, each distinct fingerprint compiles exactly once
// engine-wide — fingerprint routing pins each shape to one shard, whose
// singleflight map dedups it. Run with -race in CI.
func TestShardedExactlyOnceCompile(t *testing.T) {
	const (
		shards  = 8
		shapes  = 6
		clients = 4
		rounds  = 3
	)
	e := New(Config{Shards: shards, Workers: 4})
	defer e.Close()
	reqs := make([]Request, shapes)
	for i := range reqs {
		reqs[i] = shapeReq(t, 50+i)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, req := range reqs {
					if res := e.Serve(context.Background(), req); res.Err != nil {
						t.Error(res.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	m := e.Metrics()
	if m.Compiles != shapes {
		t.Fatalf("compiles=%d, want exactly %d (one per distinct fingerprint)", m.Compiles, shapes)
	}
	if want := int64(shapes * clients * rounds); m.Hits+m.Misses != want {
		t.Fatalf("hits+misses=%d, want %d", m.Hits+m.Misses, want)
	}
}

// TestShardedAggregationReconciles: the engine-wide Metrics()/QoS()
// snapshots are exactly the sums of the per-shard snapshots they
// aggregate, and the qos ledger totals reconcile with the request
// count.
func TestShardedAggregationReconciles(t *testing.T) {
	e := New(Config{Shards: 4, Workers: 2})
	defer e.Close()
	var total int64
	for i := 0; i < 10; i++ {
		req := shapeReq(t, 80+i)
		for j := 0; j < 2; j++ {
			if res := e.Serve(context.Background(), req); res.Err != nil {
				t.Fatal(res.Err)
			}
			total++
		}
	}

	agg, parts := e.Metrics(), e.ShardMetrics()
	var sum Metrics
	for _, p := range parts {
		sum = sum.add(p)
	}
	if agg != sum {
		t.Fatalf("Metrics() != sum of ShardMetrics():\nagg: %+v\nsum: %+v", agg, sum)
	}
	if agg.Requests != total {
		t.Fatalf("aggregated requests=%d, want %d", agg.Requests, total)
	}

	qagg, qparts := e.QoS(), e.ShardQoS()
	var admitted, batches int64
	for _, p := range qparts {
		admitted += p.TotalAdmitted()
		batches += p.Batches
	}
	if qagg.TotalAdmitted() != admitted || qagg.TotalAdmitted() != total {
		t.Fatalf("aggregated admitted=%d, per-shard sum=%d, requests=%d",
			qagg.TotalAdmitted(), admitted, total)
	}
	if qagg.Batches != batches {
		t.Fatalf("aggregated batches=%d, per-shard sum=%d", qagg.Batches, batches)
	}
	if got := qagg.TotalShed(); got != 0 {
		t.Fatalf("unloaded engine shed %d requests", got)
	}
}

// TestShardedCorrectness: a multi-shard engine computes the same
// answers as the RAM reference, vm tier and coalescing on.
func TestShardedCorrectness(t *testing.T) {
	e := New(Config{Shards: 4, Workers: 2, BatchMaxSize: 4})
	defer e.Close()
	for i := 0; i < 6; i++ {
		req := shapeReq(t, 120+i)
		res := e.Serve(context.Background(), req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, err := query.EvaluateCtx(context.Background(), req.Query, req.DB)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Output.Equal(want) {
			t.Fatalf("shape %d: engine output differs from RAM reference", i)
		}
	}
}

// TestShardedDrainTyped: Submit on a closed sharded engine resolves
// every request immediately with the typed draining overload under a
// shedding policy.
func TestShardedDrainTyped(t *testing.T) {
	e := New(Config{Shards: 4, Workers: 2, ShedPolicy: ShedOnFull})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-e.Submit(context.Background(), shapeReq(t, 140))
	if res.Err == nil {
		t.Fatal("closed engine accepted a request")
	}
	snap := e.QoS()
	if snap.Shed["miss"]["draining"] != 1 {
		t.Fatalf("draining shed not recorded: %v", snap.Shed)
	}
}
