package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/bound"
	"circuitql/internal/core"
	"circuitql/internal/engine"
	"circuitql/internal/opt"
	"circuitql/internal/panda"
	"circuitql/internal/proofseq"
	"circuitql/internal/query"
	"circuitql/internal/relation"
	"circuitql/internal/relcircuit"
	"circuitql/internal/store"
	"circuitql/internal/vm"
	"circuitql/internal/wire"
)

// span is one timed call into a layer's exported function, recorded
// from the benchmark's side of the boundary. Parent 0 is a root; spans
// of one replayed request share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// only times — that is the "off" side of trace.overhead_ratio. The
// traced pass is sequential, so the recorder is not locked.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func (r *spanRecorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, StartNs: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	if r != nil {
		r.spans[id-1].EndNs = int64(time.Since(r.t0))
	}
}

// do records a span around f and returns how long f took.
func (r *spanRecorder) do(name string, parent, req int, f func()) time.Duration {
	id := r.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	r.end(id)
	return d
}

func (r *spanRecorder) dump(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSamples collects every traced call's duration under its metric
// name; the reported value is the median.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }
func (l layerSamples) last(name string) float64   { return l[name][len(l[name])-1] }

// cannedEval is the wire server's engine for wire.rtt_us: it answers at
// once, so what Do measures is framing, the socket and the goroutine
// hops of client and server, and nothing of the engine.
type cannedEval struct{ res engine.Result }

func (c cannedEval) Submit(context.Context, engine.Request) <-chan engine.Result {
	ch := make(chan engine.Result, 1)
	ch <- c.res
	return ch
}

// tracer runs a workload's traced pass.
type tracer struct {
	cfg    *config
	w      *workloadDef
	shapes []shape
	rec    *spanRecorder
	lat    layerSamples
	out    map[string]metric
	// ops/failed count the traced pass's own verified requests.
	ops, failed, tierNotVM int
}

func (t *tracer) set(name string, v float64, unit string) {
	t.out[name] = metric{Value: v, Unit: unit}
}

// runTraced produces the per-layer numbers of one workload. base holds
// the untraced end-to-end numbers that trace.coverage is judged
// against; when nil a short untraced pass is made first.
func runTraced(ctx context.Context, cfg *config, w *workloadDef, shapes []shape, base *summary) (*tracer, error) {
	t := &tracer{
		cfg: cfg, w: w, shapes: shapes,
		rec: &spanRecorder{t0: time.Now()},
		lat: layerSamples{},
		out: map[string]metric{},
	}
	if base == nil {
		short := *cfg
		short.Reps, short.Seconds = 2, cfg.Seconds*0.4
		sum, err := runUntraced(ctx, &short, w, shapes)
		if err != nil {
			return nil, err
		}
		base = &sum
		t.ops, t.failed = sum.Ops, sum.Failed
	}
	// engine.tier_not_vm covers both passes, whoever made the untraced one.
	t.tierNotVM = base.TierNotVM
	for _, name := range []string{"loadgen.p99_ms", "loadgen.max_late_ms", "wire.outside_engine_us", "daemon.peak_rss_mb"} {
		t.out[name] = base.Metrics[name]
	}
	t.set("loadgen.p90_ms", base.Metrics["p90_ms"].Value, "ms")
	t.set("loadgen.p95_ms", base.Metrics["p95_ms"].Value, "ms")

	if err := t.daemonCounts(ctx); err != nil {
		return nil, fmt.Errorf("%s: traced daemon pass: %w", w.Name, err)
	}
	if err := t.serveLayers(ctx); err != nil {
		return nil, fmt.Errorf("%s: traced serve path: %w", w.Name, err)
	}
	if err := t.compileLayers(ctx, &shapes[0]); err != nil {
		return nil, fmt.Errorf("%s: traced compile path: %w", w.Name, err)
	}
	if err := t.storeLayers(&shapes[0]); err != nil {
		return nil, fmt.Errorf("%s: traced store: %w", w.Name, err)
	}

	for name, vals := range t.lat {
		t.set(name, median(vals), unitOf(name))
	}
	attributed := t.out["wire.rtt_us"].Value + t.out["engine.submit_us"].Value
	t.set("trace.coverage", attributed/(base.PlainP50Ms*1000), "ratio")
	t.set("engine.tier_not_vm", float64(t.tierNotVM), "count")
	return t, t.rec.dump(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
}

// daemonCounts runs the workload briefly against a daemon with the
// admin listener and reads the engine's and the batcher's own counters.
func (t *tracer) daemonCounts(ctx context.Context) error {
	salt := new(atomic.Int64)
	salt.Store(firstSalt)
	sess, err := setUp(ctx, t.cfg, t.w, t.shapes, true, salt)
	if err != nil {
		return err
	}
	defer sess.close()
	dur := time.Duration(t.cfg.Seconds * 0.2 * float64(time.Second))
	r, err := measure(ctx, t.w, sess, t.w.streams(t.shapes, t.cfg.Seed, salt), dur)
	if err != nil {
		return err
	}
	r.count(sess.warm)
	t.ops += r.OK + r.Failed
	t.failed += r.Failed
	t.tierNotVM += r.TierNotVM

	m, err := sess.d.scrape()
	if err != nil {
		return err
	}
	for name, family := range map[string]string{
		"engine.hits":      "circuitql_plan_cache_hits_total",
		"engine.misses":    "circuitql_plan_cache_misses_total",
		"engine.compiles":  "circuitql_engine_compiles_total",
		"engine.evictions": "circuitql_plan_cache_evictions_total",
		"qos.batches":      "circuitql_qos_vm_batches_total",
		"qos.shed":         "circuitql_qos_shed_total",
	} {
		v, ok := m[family]
		if !ok {
			return fmt.Errorf("/metrics has no %s", family)
		}
		t.set(name, v, "count")
	}
	mean := 0.0
	if b := m["circuitql_qos_vm_batches_total"]; b > 0 {
		mean = m["circuitql_qos_vm_batched_requests_total"] / b
	}
	t.set("qos.mean_batch", mean, "count")
	return nil
}

// serveLayers replays the workload's shape mix in-process, timing each
// layer a cached request passes through from outside the layer.
func (t *tracer) serveLayers(ctx context.Context) error {
	eng := engine.New(engine.Config{})
	defer eng.Close()
	progs := make([]*vm.Program, len(t.shapes))
	reqs := make([]engine.Request, len(t.shapes))
	for i := range t.shapes {
		sh := &t.shapes[i]
		var err error
		if progs[i], err = vm.Compile(ctx, sh.compiled.Obliv.C); err != nil {
			return err
		}
		reqs[i] = engine.Request{Query: sh.q, DCs: sh.dcs, DB: sh.db}
		if res := <-eng.Submit(ctx, reqs[i]); res.Err != nil {
			return res.Err
		}
	}

	// The canned wire server for wire.rtt_us, over real loopback TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := wire.NewServer(cannedEval{engine.Result{Output: t.shapes[0].ref, Tier: engine.TierVM}}, wire.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(ctx) //nolint:errcheck // canned server, nothing in flight
		<-served
	}()
	client, err := wire.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()

	pick := t.w.picker(len(t.shapes), t.cfg.Seed, 0)
	for i := 1; i <= t.cfg.ServeCalls; i++ {
		k := pick()
		if err := t.replay(ctx, i, &t.shapes[k], progs[k], eng, reqs[k], client); err != nil {
			return err
		}
	}

	// The interpreter tier is milliseconds per call: compile-side count.
	sh := &t.shapes[0]
	for i := 0; i < t.cfg.CompileCalls; i++ {
		_, err := t.timed(step{"boolcircuit.interp_eval_us", "core.EvaluateObliviousCtx", func() error {
			_, err := sh.compiled.EvaluateObliviousCtx(ctx, sh.db)
			return err
		}}, 0, 0)
		if err != nil {
			return err
		}
	}

	// Tracing cost: the same Submit loop with the recorder on and off,
	// alternating so drift hits both sides alike.
	var on, off []float64
	for i := 0; i < t.cfg.ServeCalls; i++ {
		k := pick()
		submit := func() { <-eng.Submit(ctx, reqs[k]) }
		on = append(on, toUs(t.rec.do("engine.Submit", 0, 0, submit)))
		off = append(off, toUs((*spanRecorder)(nil).do("engine.Submit", 0, 0, submit)))
	}
	t.set("trace.overhead_ratio", median(on)/median(off), "ratio")
	return nil
}

// step is one timed call: the metric its duration is filed under, the
// span recorded around it, and the call.
type step struct {
	metric, span string
	f            func() error
}

// timed records a span around the step and files its duration under the
// metric, in the metric's declared unit (ms or us).
func (t *tracer) timed(st step, parent, req int) (time.Duration, error) {
	var err error
	d := t.rec.do(st.span, parent, req, func() { err = st.f() })
	if unitOf(st.metric) == "ms" {
		t.lat.add(st.metric, toMs(d))
	} else {
		t.lat.add(st.metric, toUs(d))
	}
	return d, err
}

// timedAll runs the steps in order under one parent, stopping at the
// first error, and returns their summed duration.
func (t *tracer) timedAll(steps []step, parent, req int) (time.Duration, error) {
	var sum time.Duration
	for _, st := range steps {
		d, err := t.timed(st, parent, req)
		if err != nil {
			return sum, err
		}
		sum += d
	}
	return sum, nil
}

// replay is one request of the traced pass: first the four layers a
// cached request passes through, called directly and in order under one
// "request" span; then the same request through engine.Submit, whose
// full answer is compared with the RAM join's tuple for tuple; then the
// layers that sit beside that path.
func (t *tracer) replay(ctx context.Context, i int, sh *shape, prog *vm.Program, eng *engine.Engine, req engine.Request, client *wire.Client) error {
	var (
		in   []vm.Word
		outs [][]vm.Word
		rel  *relation.Relation
		res  engine.Result
		resp wire.Response
	)
	root := t.rec.begin("request", 0, i)
	direct, err := t.timedAll([]step{
		{"query.canonicalize_us", "query.Canonicalize", func() error {
			_, err := query.Canonicalize(sh.q, sh.dcs)
			return err
		}},
		{"core.pack_us", "core.PackOblivious", func() (err error) {
			in, err = sh.compiled.PackOblivious(sh.db)
			return err
		}},
		{"vm.eval_us", "vm.EvalBatchOpts", func() (err error) {
			outs, err = prog.EvalBatchOpts(ctx, [][]vm.Word{in}, vm.Options{Workers: 1})
			return err
		}},
		{"core.decode_us", "core.DecodeOblivious", func() (err error) {
			rel, err = sh.compiled.DecodeOblivious(outs[0])
			return err
		}},
	}, root, i)
	t.rec.end(root)
	if err != nil {
		return err
	}

	submit, err := t.timed(step{"engine.submit_us", "engine.Submit", func() error {
		res = <-eng.Submit(ctx, req)
		return res.Err
	}}, 0, i)
	if err != nil {
		return err
	}
	t.lat.add("engine.self_us", toUs(submit-direct))
	t.lat.add("vm.ns_per_gate", t.lat.last("vm.eval_us")*1000/float64(prog.Instructions()))

	_, err = t.timedAll([]step{
		{"wire.rtt_us", "wire.Client.Do", func() (err error) {
			if resp, err = client.Do(ctx, sh.call().Req); err == nil && resp.Status != wire.StatusOK {
				err = fmt.Errorf("canned wire server: %s %s", resp.Status, resp.Err)
			}
			return err
		}},
		{"wire.codec_us", "wire.codec", func() error { return codecRoundTrip(sh.call().Req, resp) }},
		{"query.parse_us", "query.Parse", func() error {
			_, err := query.Parse(sh.Query)
			return err
		}},
		{"query.ram_eval_us", "query.EvaluateCtx", func() error {
			_, err := query.EvaluateCtx(ctx, sh.q, sh.db)
			return err
		}},
	}, 0, i)
	if err != nil {
		return err
	}

	batch := make([][]vm.Word, 16)
	for j := range batch {
		batch[j] = in
	}
	d := t.rec.do("vm.EvalBatchOpts/16", 0, i, func() { outs, _ = prog.EvalBatchOpts(ctx, batch, vm.Options{Workers: 1}) })
	if len(outs) != len(batch) {
		return fmt.Errorf("vm batch of %d returned %d outputs", len(batch), len(outs))
	}
	t.lat.add("vm.eval_b16_us_per_req", toUs(d)/float64(len(batch)))

	t.ops++
	switch {
	case res.Tier != engine.TierVM:
		t.failed++
		t.tierNotVM++
	case !res.Output.Equal(sh.ref) || rel.Len() != sh.Rows:
		t.failed++
	}
	return nil
}

// codecRoundTrip encodes and decodes one request and one response
// through a buffer: the four codec functions, no socket.
func codecRoundTrip(req wire.Request, resp wire.Response) error {
	var buf bytes.Buffer
	if err := wire.WriteRequest(&buf, req); err != nil {
		return err
	}
	if _, err := wire.ReadRequest(&buf); err != nil {
		return err
	}
	if err := wire.WriteResponse(&buf, resp); err != nil {
		return err
	}
	_, err := wire.ReadResponse(&buf)
	return err
}

// compileLayers times each compile-side layer on one shape's canonical
// pair, stage by stage as core.CompileQueryOptsCtx chains them, then the
// whole pipeline in one call. Counts are those of the last iteration;
// the pipeline is deterministic, so they repeat exactly.
func (t *tracer) compileLayers(ctx context.Context, sh *shape) error {
	q, dcs := sh.canon.Query, sh.canon.DCs
	for i := 1; i <= t.cfg.CompileCalls; i++ {
		var (
			bres *bound.Result
			seq  proofseq.Sequence
			pres *panda.CompileResult
			rel  *relcircuit.Circuit
			obl  *core.ObliviousCircuit
			word *boolcircuit.Circuit
			prog *vm.Program
		)
		pipeline := []step{
			{"panda.compile_ms", "panda.CompileFCQCtx", func() (err error) {
				pres, err = panda.CompileFCQCtx(ctx, q, dcs)
				return err
			}},
			{"opt.rel_ms", "opt.Rel", func() error {
				rel, _ = opt.Rel(pres.Circuit)
				return nil
			}},
			{"core.lower_ms", "core.CompileObliviousCtx", func() (err error) {
				obl, err = core.CompileObliviousCtx(ctx, rel)
				return err
			}},
			{"opt.bool_ms", "opt.Bool", func() error {
				word = opt.Bool(obl.C)
				return nil
			}},
			{"vm.compile_ms", "vm.Compile", func() (err error) {
				prog, err = vm.Compile(ctx, word)
				return err
			}},
		}
		// panda.CompileFCQCtx contains the first two; they are timed on
		// their own as well, as is the pipeline in one call.
		standalone := []step{
			{"bound.lp_ms", "bound.LogBoundCtx", func() (err error) {
				bres, err = bound.LogBoundCtx(ctx, q, dcs, q.AllVars())
				return err
			}},
			{"proofseq.build_ms", "proofseq.BuildCtx", func() (err error) {
				seq, _, err = proofseq.BuildCtx(ctx, q, bres)
				return err
			}},
			{"core.compile_ms", "core.CompileQueryCtx", func() error {
				_, err := core.CompileQueryCtx(ctx, q, dcs)
				return err
			}},
		}
		// Compile spans carry the negated iteration as request id, apart
		// from the replayed requests' positive ones.
		root := t.rec.begin("compile", 0, -i)
		_, err := t.timedAll(pipeline, root, -i)
		t.rec.end(root)
		if err == nil {
			_, err = t.timedAll(standalone, 0, -i)
		}
		if err != nil {
			return err
		}

		log2, _ := bres.LogValue.Float64()
		t.set("bound.log2_bound", log2, "bits")
		t.set("proofseq.steps", float64(len(seq)), "count")
		t.set("panda.rel_gates", float64(pres.Circuit.Size()), "count")
		t.set("panda.restarts", float64(pres.Restarts), "count")
		t.set("core.word_gates_raw", float64(obl.C.Size()), "count")
		t.set("opt.word_gates", float64(word.Size()), "count")
		t.set("opt.word_depth", float64(word.Depth()), "count")
		t.set("vm.instructions", float64(prog.Instructions()), "count")
		t.set("vm.slots", float64(prog.Slots()), "count")
		t.set("vm.levels", float64(prog.Levels()), "count")
	}
	return nil
}

// storeLayers times one plan's write and read in a fresh store each
// time: PutPlan leaves an already-stored fingerprint untouched.
func (t *tracer) storeLayers(sh *shape) error {
	art := store.FromCompiled(sh.canon, sh.compiled)
	enc, err := store.EncodePlan(art)
	if err != nil {
		return err
	}
	t.set("store.bytes_per_plan", float64(len(enc)), "bytes")
	for i := 0; i < t.cfg.CompileCalls; i++ {
		dir, err := os.MkdirTemp(t.cfg.workDir, "store-") // removed with workDir
		if err != nil {
			return err
		}
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		_, err = t.timedAll([]step{
			{"store.put_ms", "store.PutPlan", func() error { return st.PutPlan(art) }},
			{"store.get_ms", "store.GetPlan", func() error {
				_, err := st.GetPlan(sh.canon.FP)
				return err
			}},
		}, 0, 0)
		if err != nil {
			return err
		}
	}
	return nil
}
