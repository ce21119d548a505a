// Command circuitload drives zipf-skewed closed-loop load at a serving
// engine and reports throughput, per-lane latency quantiles, and the
// outcome mix.
//
// Two modes share one harness (internal/loadgen):
//
// Wire mode (-addr) measures a live circuitd across the network,
// including framing and the round trip:
//
//	circuitd -listen :7420 -batch-size 8 </dev/null &
//	circuitload -addr :7420 -clients 16 -duration 10s
//
// Embedded mode (no -addr) spins up an in-process engine, so worker and
// batching settings can be swept without a daemon:
//
//	circuitload -workers 8 -batch-size 8 -clients 16 -duration 10s
//
// Embedded mode also prints the engine's vm batch-size histogram —
// the direct evidence of request coalescing under the skewed load —
// and its final metrics summary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"circuitql/internal/engine"
	"circuitql/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("circuitload: ")
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "", "wire server address; empty runs an embedded in-process engine")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		shapes   = flag.Int("shapes", 16, "distinct query shapes (plan fingerprints)")
		tuples   = flag.Int("tuples", 8, "tuples per generated relation")
		zipfS    = flag.Float64("zipf", 1.4, "zipf skew exponent (>1; larger concentrates load on the hot shape)")
		duration = flag.Duration("duration", 5*time.Second, "submission phase length")
		deadline = flag.Duration("deadline", 0, "deadline attached to every 9th request (0: none)")
		seed     = flag.Int64("seed", 1, "shape-selection seed")
		conns    = flag.Int("conns", 2, "wire connections (wire mode); each multiplexes many requests")

		// Embedded-engine knobs; ignored in wire mode.
		workers  = flag.Int("workers", 0, "engine workers (embedded mode; 0: GOMAXPROCS)")
		batchSz  = flag.Int("batch-size", 8, "vm batch coalescing cap (embedded mode; <=1: off)")
		batchWin = flag.Duration("batch-window", 0, "batch companion wait (embedded mode; 0: default)")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Clients:  *clients,
		Shapes:   *shapes,
		Tuples:   *tuples,
		ZipfS:    *zipfS,
		Duration: *duration,
		Deadline: *deadline,
		Seed:     *seed,
	}

	if *addr != "" {
		target, err := loadgen.DialWire(*addr, *conns)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer target.Close()
		log.Printf("driving %s: %d clients x %d shapes, zipf %.2f, %v",
			*addr, cfg.Clients, cfg.Shapes, cfg.ZipfS, cfg.Duration)
		fmt.Print(loadgen.Run(cfg, target))
		return 0
	}

	eng := engine.New(engine.Config{
		Workers:      *workers,
		BatchMaxSize: *batchSz,
		BatchWindow:  *batchWin,
	})
	defer eng.Close()
	target, err := loadgen.NewEngineTarget(eng, loadgen.Shapes(cfg.Shapes, cfg.Tuples, cfg.Seed))
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("embedded engine: batch<=%d; %d clients x %d shapes, zipf %.2f, %v",
		*batchSz, cfg.Clients, cfg.Shapes, cfg.ZipfS, cfg.Duration)
	fmt.Print(loadgen.Run(cfg, target))

	m := eng.Metrics()
	fmt.Printf("vm batches=%d batched-requests=%d sizes:", m.Batches, m.BatchedRequests)
	for i, v := range m.BatchSizes {
		if v > 0 {
			fmt.Printf(" %s=%d", engine.BatchBucketLabel(i), v)
		}
	}
	fmt.Printf("\n\n%s\n", m)
	return 0
}
