// Command circuitd is a long-lived serving daemon over the circuitql
// Engine: it reads newline-delimited query requests from stdin, serves
// each from the canonical plan cache (compiling on first sight), and
// prints one result line per request plus an engine metrics summary at
// EOF.
//
// Each input line is a conjunctive query, optionally followed by " ; "
// and a degree-constraint list:
//
//	Q(A,B,C) :- R(A,B), S(B,C), T(A,C)
//	Q(A,B,C) :- R(A,B), S(B,C), T(A,C) ; R|A <= 1
//
// Blank lines and lines starting with '#' are skipped. Relations are
// generated per distinct atom name with -n tuples each (seeded, so
// repeated runs are reproducible); cardinality constraints are derived
// from the generated data and any extra constraints from the line are
// merged in. Structurally identical queries — same shape up to variable
// renaming and atom reordering — share one compiled plan, which the
// per-line hit/miss flag makes visible:
//
//	echo 'Q(A,B,C) :- R(A,B), S(B,C), T(A,C)
//	Q(Y,Z,X) :- S(Y,Z), T(X,Z), R(X,Y)' | circuitd -n 12
//
// compiles once and answers the second line from the cache.
//
// With -admin ADDR the daemon also serves an observability surface:
// /metrics (Prometheus text format; ?format=json for JSON), /healthz,
// /trace/last (span trees of recent requests; ?n=K), and
// /debug/pprof/. When -admin is set, stdin EOF leaves the process
// running for scrapers until SIGINT/SIGTERM:
//
//	circuitd -admin :6060 </dev/null &
//	curl localhost:6060/metrics
//
// With -listen ADDR the daemon additionally serves the concurrent
// binary wire protocol (internal/wire) on a TCP listener: clients
// pipeline length-prefixed requests over one connection, responses
// return out of order correlated by ID, and per-request deadlines and
// priorities map onto the engine's admission machinery.
// -batch-size/-batch-window enable same-fingerprint vm batch
// coalescing. Like -admin, -listen keeps the process up past stdin EOF:
//
//	circuitd -listen :7420 -batch-size 8 </dev/null &
//	circuitload -addr :7420 -clients 16 -duration 10s
//
// With -store DIR compiled plans persist across restarts: every compile
// is written back to a checksummed artifact store and the store is
// warm-loaded into the plan caches on start, so a restarted daemon
// serves every previously-seen shape with zero compiles:
//
//	circuitd -store /var/lib/circuitql/plans
//
// With -db DIR requests evaluate against a columnar database directory
// (written by circuitc -export or ExportColumnarDB) instead of
// generated workloads. A wire request always evaluates a generated
// workload, so -db and -listen are refused together.
//
// Overload protection: -max-inflight caps concurrent evaluation,
// -queue-depth bounds each admission lane, and -shed-policy picks what a
// full lane does (block, shed with a typed retry-after error, or
// adaptive: shed, and shed below-normal-priority requests first once a
// lane is three-quarters full). SIGINT/SIGTERM triggers a graceful drain
// bounded by -drain: queued requests get that long to finish before
// engine-owned work is canceled with typed errors.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"circuitql"
	"circuitql/internal/obs"
	"circuitql/internal/wire"
	"circuitql/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("circuitd: ")
	// log.Fatal would os.Exit past the engine's deferred Close, leaving
	// queued requests undrained; run returns an exit code instead.
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

// run is the daemon: it serves stdin (and any listeners), writes result
// lines and the exit summary to stdout, and returns the exit code.
func run(args []string, stdin io.Reader, stdout io.Writer) int {
	fs := flag.NewFlagSet("circuitd", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 16, "tuples per generated relation")
		seed       = fs.Int64("seed", 1, "generator seed")
		cacheGates = fs.Int64("cache-gates", 0, "plan cache budget in gates (0: default, <0: unlimited)")
		timeout    = fs.Duration("timeout", 0, "per-request timeout (0: none)")
		gateBudget = fs.Int64("gate-budget", 0, "per-request gate evaluation budget (0: none)")
		admin      = fs.String("admin", "", "admin HTTP listen address (e.g. :6060) serving /metrics, /healthz, /trace/last, /debug/pprof/")
		traceRing  = fs.Int("trace-ring", 64, "recent request span trees kept for /trace/last")
		noOpt      = fs.Bool("no-opt", false, "compile plans without the circuit optimizer")
		inflight   = fs.Int("max-inflight", 0, "concurrently evaluating requests on the cached-hit lane (0: GOMAXPROCS; compile misses get half)")
		queueDepth = fs.Int("queue-depth", 0, "queued requests per admission lane beyond its workers (0: 2x the lane's workers)")
		shed       = fs.String("shed-policy", "block", "full-queue behavior: block (wait), shed (reject with a typed overload error), adaptive (shed, and shed low-priority requests first when a lane is 3/4 full)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-drain bound on shutdown; queued work past it fails with typed errors")
		listen     = fs.String("listen", "", "wire-protocol TCP listen address (e.g. :7420); pipelined binary requests served concurrently")
		batchSize  = fs.Int("batch-size", 0, "max same-fingerprint requests coalesced into one vm batch (<=1: off)")
		batchWin   = fs.Duration("batch-window", 0, "how long a fresh batch waits for companions (0: 250µs when -batch-size enables coalescing)")
		storeDir   = fs.String("store", "", "persistent plan store directory: compiled plans are written back and warm-loaded on start, so a restart never recompiles a known shape")
		dbDir      = fs.String("db", "", "columnar database directory (see circuitc -export); requests evaluate against it instead of generated workloads")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	policy, err := parseShedPolicy(*shed)
	if err != nil {
		log.Print(err)
		return 2
	}
	if *dbDir != "" && *listen != "" {
		log.Print("-db and -listen cannot be combined: wire requests evaluate generated workloads, never the -db database")
		return 2
	}

	// The persistent plan store makes compiled plans durable: every
	// compile is written back, and the engine promotes the whole store
	// into its plan cache before the first request, so a restarted
	// daemon serves known shapes with zero compiles.
	var planStore *circuitql.PlanStore
	if *storeDir != "" {
		var err error
		planStore, err = circuitql.OpenPlanStore(*storeDir)
		if err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("plan store at %s (%d plans to warm-load)", *storeDir, planStore.Len())
	}

	// A columnar database replaces the generated workloads: every
	// request line evaluates against the relations on disk.
	var fixedDB circuitql.Database
	if *dbDir != "" {
		fixedDB, err = circuitql.LoadColumnarDB(*dbDir)
		if err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("columnar database at %s (%d relations)", *dbDir, len(fixedDB))
	}

	// The admin listener implies per-request tracing: every request's
	// span tree lands in the ring buffer behind /trace/last and its
	// stage aggregates behind /metrics.
	var tracer *obs.Tracer
	if *admin != "" {
		tracer = obs.NewTracer(*traceRing)
	}
	eng := circuitql.NewEngine(circuitql.EngineConfig{
		Workers:        *inflight,
		QueueDepth:     *queueDepth,
		MissQueueDepth: *queueDepth,
		ShedPolicy:     policy,
		MaxCacheGates:  *cacheGates,
		Tracer:         tracer,
		NoOpt:          *noOpt,
		BatchMaxSize:   *batchSize,
		BatchWindow:    *batchWin,
		Store:          planStore,
	})
	// Deferred calls run last-registered first: the summary prints after
	// the wire server and the engine have drained, store writes included.
	printSummary := false
	defer func() {
		if printSummary {
			fmt.Fprintf(stdout, "\n%s\n", eng.Metrics())
		}
	}()
	// Deadline-bounded drain instead of a plain Close: queued requests
	// get *drain to finish; engine-owned compiles are canceled past it.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			log.Print(err)
		}
	}()

	// The wire listener serves the binary protocol concurrently with the
	// stdin loop. Its drain defer is registered after the engine's, so on
	// shutdown the network side drains first (listener closed, connection
	// read sides half-closed, in-flight responses flushed) and only then
	// does the engine drain its queues.
	var wireSrv *wire.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Print(err)
			return 1
		}
		wireSrv = wire.NewServer(wireEval{eng, *gateBudget}, wire.ServerConfig{
			Tuples:      *n,
			Seed:        *seed,
			MaxDeadline: *timeout,
		})
		wireErr := make(chan error, 1)
		go func() { wireErr <- wireSrv.Serve(ln) }()
		log.Printf("wire protocol listening on %s", ln.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := wireSrv.Shutdown(ctx); err != nil {
				log.Print(err)
			}
			if err := <-wireErr; err != nil {
				log.Print(err)
			}
		}()
	}

	var adminDone func()
	if *admin != "" {
		reg := obs.NewRegistry()
		reg.Register(func() []obs.Family { return eng.Metrics().Families() })
		reg.Register(func() []obs.Family { return eng.QoS().Families() })
		reg.Register(obs.TracerFamilies(tracer))
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Print(err)
			return 1
		}
		srv := &http.Server{Handler: obs.AdminMux(reg, tracer)}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Print(err)
			}
		}()
		log.Printf("admin listening on http://%s (/metrics /healthz /trace/last /debug/pprof/)", ln.Addr())
		adminDone = func() { srv.Close() }
	}

	// SIGINT/SIGTERM starts a graceful drain: stop consuming stdin,
	// then the deferred Shutdown above gives in-flight and queued work
	// up to -drain to finish.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	// The scanner feeds a channel so the serve loop can select between
	// input and signals. The goroutine exits with the process; its send
	// blocking after an interrupt is harmless.
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdin)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		scanErr <- sc.Err()
		close(lines)
	}()

	lineNo, failures, interrupted := 0, 0, false
serve:
	for {
		select {
		case raw, ok := <-lines:
			if !ok {
				if err := <-scanErr; err != nil {
					log.Print(err)
					return 1
				}
				break serve
			}
			lineNo++
			line := strings.TrimSpace(raw)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if err := serveLine(stdout, eng, line, *n, *seed, *timeout, *gateBudget, fixedDB); err != nil {
				failures++
				fmt.Fprintf(stdout, "line %d: error: %v\n", lineNo, err)
			}
		case s := <-sig:
			log.Printf("%v: draining (bound %v)", s, *drain)
			interrupted = true
			break serve
		}
	}

	// With an admin or wire listener up, stdin EOF does not end the
	// process: scrapers and wire clients keep their endpoints until
	// SIGINT/SIGTERM. The metrics summary prints at exit so it covers
	// the wire traffic served in the meantime.
	if (adminDone != nil || wireSrv != nil) && !interrupted {
		log.Print("stdin closed; listeners stay up — interrupt to exit")
		s := <-sig
		log.Printf("%v: draining (bound %v)", s, *drain)
	}
	printSummary = true
	if adminDone != nil {
		adminDone()
	}
	if failures > 0 {
		log.Printf("%d request(s) failed", failures)
		return 1
	}
	return 0
}

// wireEval adapts the facade Engine to wire.Evaluator: the wire server
// submits assembled engine requests, held to -gate-budget as stdin is.
type wireEval struct {
	eng        *circuitql.Engine
	gateBudget int64
}

func (w wireEval) Submit(ctx context.Context, req circuitql.EngineRequest) <-chan circuitql.ServeResult {
	return w.eng.SubmitRequest(withGateBudget(ctx, w.gateBudget), req)
}

// withGateBudget attaches a per-request gate budget when one is set.
func withGateBudget(ctx context.Context, gates int64) context.Context {
	if gates > 0 {
		ctx = circuitql.WithBudget(ctx, &circuitql.Budget{MaxGates: gates})
	}
	return ctx
}

// parseShedPolicy maps the -shed-policy flag onto an engine policy.
func parseShedPolicy(s string) (circuitql.ShedPolicy, error) {
	switch s {
	case "block":
		return circuitql.ShedBlock, nil
	case "shed":
		return circuitql.ShedOnFull, nil
	case "adaptive":
		return circuitql.ShedAdaptive, nil
	}
	return 0, fmt.Errorf("unknown -shed-policy %q (want block, shed, or adaptive)", s)
}

// serveLine parses one "query [; constraints]" line, builds its
// workload (or serves the fixed columnar database when one was loaded),
// and serves it through the engine.
func serveLine(stdout io.Writer, eng *circuitql.Engine, line string, n int, seed int64, timeout time.Duration, gateBudget int64, fixedDB circuitql.Database) error {
	src, dcSrc, hasDC := strings.Cut(line, ";")
	q, err := circuitql.ParseQuery(strings.TrimSpace(src))
	if err != nil {
		return err
	}
	db := fixedDB
	if db == nil {
		db = workload.ForQuery(q, seed, n)
	}
	dcs, err := circuitql.DeriveConstraints(q, db)
	if err != nil {
		return err
	}
	if hasDC {
		extra, err := circuitql.ParseConstraints(q, strings.TrimSpace(dcSrc))
		if err != nil {
			return err
		}
		dcs = append(dcs, extra...)
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res := eng.Serve(withGateBudget(ctx, gateBudget), q, dcs, db)
	if res.Err != nil {
		return res.Err
	}
	fmt.Fprintf(stdout, "fp=%s hit=%-5v tier=%-10s out=%-4d compile=%v eval=%v  %s\n",
		res.Fingerprint.Short(), res.CacheHit, res.Tier, res.Output.Len(),
		res.CompileTime.Round(time.Microsecond), res.EvalTime.Round(time.Microsecond), q)
	return nil
}
