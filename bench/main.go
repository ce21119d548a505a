// Command bench is the repo's benchmark: it builds cmd/circuitd from
// the working tree, runs it as a child process, drives it over
// internal/wire with four workloads, checks every reply against an
// answer it computed itself, and prints every metric by name and unit.
//
//	go run -C bench .                        all workloads, untraced then traced
//	go run -C bench . -quick                 the same in seconds (smoke)
//	go run -C bench . --workload hot-eval --seed 3 --seconds 25 --trace 0
//	go run -C bench . compare a.json b.json  two result files, metric by metric
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// under --trace 0, the per-layer ones under --trace 1. See README.md
// for the workloads, the metric glossary and the noise floor.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all, untraced then traced)")
		seed    = fs.Int64("seed", 1, "workload seed: shapes, databases and request order derive from it")
		seconds = fs.Float64("seconds", 30, "measured seconds per workload, split over 5 repetitions, each on a fresh daemon")
		trace   = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		quick   = fs.Bool("quick", false, "smoke sizing: 1 repetition of 1 s, 20 traced calls per layer")
		out     = fs.String("out", "", "result JSON path (default bench/out/result.json, or result-<workload>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := &config{Seed: *seed, Seconds: *seconds, Reps: 5, ServeCalls: 1600, CompileCalls: 5}
	if *quick {
		cfg.Seconds, cfg.Reps, cfg.ServeCalls, cfg.CompileCalls = 1, 1, 20, 2
	}

	// One generator process with at most two threads running Go code:
	// the daemon must not compete with an oversized load generator.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := execute(ctx, cfg, *name, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func execute(ctx context.Context, cfg *config, name string, trace int, out string) error {
	var err error
	if cfg.root, err = findRoot(); err != nil {
		return err
	}
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	// Without -workload: every workload, both passes, no driver line.
	targets, untraced, traced, file := workloads, true, true, "result.json"
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		targets, untraced, traced, file = []workloadDef{*w}, trace == 0, trace != 0, "result-"+name+".json"
	}
	if out == "" {
		out = filepath.Join(cfg.outDir, file)
	}
	// Scratch stays inside the checkout and goes away with the run.
	cfg.workDir = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	for _, dir := range []string{cfg.outDir, cfg.workDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(cfg.workDir)
	if cfg.bin, err = buildDaemon(ctx, cfg.root, cfg.workDir); err != nil {
		return err
	}

	res := &result{Meta: meta{
		Commit:     commit(cfg.root),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Reps:       cfg.Reps,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}}

	for i := range targets {
		wr, err := runWorkload(ctx, cfg, &targets[i], untraced, traced)
		if err != nil {
			return err
		}
		wr.print(os.Stdout)
		res.Workloads = append(res.Workloads, *wr)
	}
	if err := res.write(out); err != nil {
		return err
	}
	if name == "" {
		return nil
	}
	wr := &res.Workloads[0]
	defs, from := endToEnd, wr.EndToEnd
	if traced {
		defs, from = perLayer, wr.PerLayer
	}
	line, err := contractLine(wr, defs, from)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// runWorkload generates a workload's shapes from the seed and runs the
// requested passes. With both, the traced pass judges its coverage
// against the untraced pass just made; alone, it makes a short one.
func runWorkload(ctx context.Context, cfg *config, w *workloadDef, untraced, traced bool) (*workloadResult, error) {
	shapes, err := w.shapes(ctx, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: shapes: %w", w.Name, err)
	}
	wr := &workloadResult{Name: w.Name, Why: w.Why, DaemonFlags: append([]string{"-listen", "<free port>"}, w.Flags...)}
	if w.Store {
		wr.DaemonFlags = append(wr.DaemonFlags, "-store", "<temp dir>")
	}
	var base *summary
	if untraced {
		sum, err := runUntraced(ctx, cfg, w, shapes)
		if err != nil {
			return nil, err
		}
		wr.addUntraced(sum)
		base = &sum
	}
	if traced {
		t, err := runTraced(ctx, cfg, w, shapes, base)
		if err != nil {
			return nil, err
		}
		wr.addTraced(t)
	}
	return wr, nil
}

// commit names the measured tree; a checkout without git history (the
// benchmark driver's) is "unknown".
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
