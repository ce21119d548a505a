package obs

import (
	"context"
	"errors"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeFormation(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, StageCompile)
	if root == nil {
		t.Fatal("root span nil under a tracer")
	}
	cctx, lp := StartSpan(ctx, StageLPSolve)
	lp.AddInt(CounterPivots, 7)
	lp.AddInt(CounterPivots, 3)
	lp.End()
	if SpanFromContext(cctx) != lp {
		t.Fatal("child context does not carry the child span")
	}
	_, ps := StartSpan(ctx, StageProofSeq)
	ps.SetError(errors.New("boom"))
	ps.End()
	root.AddInt(CounterGates, 42)
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name != StageLPSolve || kids[1].Name != StageProofSeq {
		t.Fatalf("children = %v", kids)
	}
	for _, a := range kids[0].Attrs() {
		if a.Key == CounterPivots && a.Int != 10 {
			t.Fatalf("pivots = %d, want accumulated 10", a.Int)
		}
	}

	roots := tr.Last(0)
	if len(roots) != 1 || roots[0] != root {
		t.Fatalf("ring = %v", roots)
	}
	agg := tr.Aggregates()
	if agg[StageLPSolve].Counters[CounterPivots] != 10 {
		t.Fatalf("aggregate pivots = %d", agg[StageLPSolve].Counters[CounterPivots])
	}
	if agg[StageProofSeq].Errors != 1 {
		t.Fatalf("proofseq errors = %d, want 1", agg[StageProofSeq].Errors)
	}

	text := Format(root)
	for _, want := range []string{StageCompile, "  " + StageLPSolve, "lp_pivots=10", `error="boom"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("Format missing %q:\n%s", want, text)
		}
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	ctx := WithTracer(context.Background(), tr)
	for _, name := range []string{"a", "b", "c"} {
		_, sp := StartSpan(ctx, name)
		sp.End()
	}
	roots := tr.Last(0)
	if len(roots) != 2 || roots[0].Name != "c" || roots[1].Name != "b" {
		t.Fatalf("ring after eviction = %v", roots)
	}
	if got := tr.Last(1); len(got) != 1 || got[0].Name != "c" {
		t.Fatalf("Last(1) = %v", got)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "x")
	sp.EndAt(sp.Start.Add(5 * time.Millisecond))
	if d := sp.Duration(); d != 5*time.Millisecond {
		t.Fatalf("EndAt(start+5ms) recorded %v", d)
	}
	sp.End()
	if d := sp.Duration(); d != 5*time.Millisecond {
		t.Fatalf("End after EndAt changed the duration to %v", d)
	}
	if n := tr.Aggregates()["x"].Count; n != 1 {
		t.Fatalf("aggregate count = %d after double End", n)
	}
	if n := len(tr.Last(0)); n != 1 {
		t.Fatalf("ring holds %d entries after double End", n)
	}
}

// TestNilSpanFastPath: without a tracer every hook point must be inert —
// nil spans, nil-safe methods, zero allocations (satellite: the hot-path
// contract is checked by AllocsPerRun, not eyeballed).
func TestNilSpanFastPath(t *testing.T) {
	ctx := context.Background()
	c2, sp := StartSpan(ctx, StageCompile)
	if sp != nil {
		t.Fatal("span without tracer should be nil")
	}
	if c2 != ctx {
		t.Fatal("untraced StartSpan must return the context unchanged")
	}
	// All methods tolerate the nil receiver.
	sp.AddInt(CounterGates, 1)
	sp.SetTag("k", "v")
	sp.SetError(errors.New("x"))
	sp.End()
	if sp.Duration() != 0 || sp.Attrs() != nil || sp.Children() != nil {
		t.Fatal("nil span accessors must return zero values")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := StartSpan(ctx, StageLPSolve)
		sp.AddInt(CounterPivots, 1)
		sp.SetError(nil)
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("untraced span site allocates %v per run, want 0", allocs)
	}
}

func BenchmarkStartSpanNilTracer(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, StageLPSolve)
		sp.AddInt(CounterPivots, 1)
		sp.End()
	}
}

// promLine matches every legal non-comment line of the text exposition
// format: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

func TestPrometheusExposition(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, StageCompile)
	sp.AddInt(CounterGates, 5)
	sp.End()

	reg := NewRegistry()
	reg.Register(TracerFamilies(tr))
	reg.Register(func() []Family {
		return []Family{testLabelled, {
			Name: "circuitql_test_hist", Help: "histogram escape\ncheck", Type: TypeHistogram,
			Samples: []Sample{{
				Buckets: []HistBucket{{1e-6, 2}, {1e-3, 5}},
				Sum:     0.004, Count: 7,
			}},
		}}
	})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	seenTypes := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if seenTypes[parts[2]] {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			seenTypes[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if strings.Contains(line, "\n") {
				t.Fatalf("unescaped newline in HELP: %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
	}
	for _, want := range []string{
		"circuitql_uptime_seconds",
		`circuitql_stage_total{stage="compile"} 1`,
		`circuitql_stage_counter_total{stage="compile",counter="gates"} 5`,
		`circuitql_test_labelled_total{tier="b"} 2`,
		`circuitql_test_hist_bucket{le="+Inf"} 7`,
		"circuitql_test_hist_sum 0.004",
		"circuitql_test_hist_count 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Cumulative buckets must be monotone up to +Inf.
	cum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "circuitql_test_hist_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < cum {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, cum)
		}
		cum = v
	}
}

// testLabelled is a counter family with one label, two samples.
var testLabelled = Family{
	Name: "circuitql_test_labelled_total", Help: "A labelled test counter.", Type: TypeCounter,
	Samples: []Sample{
		{Labels: []Label{{"tier", "a"}}, Value: 1},
		{Labels: []Label{{"tier", "b"}}, Value: 2},
	},
}

func TestMetricsJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func() []Family { return []Family{testLabelled} })
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"circuitql_uptime_seconds"`, `"circuitql_test_labelled_total"`, `"tier": "b"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestAdminMux(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, StageServe)
	_, child := StartSpan(context.WithValue(ctx, spanKey{}, sp), StageCompile)
	child.End()
	sp.End()

	reg := NewRegistry()
	reg.Register(TracerFamilies(tr))
	srv := httptest.NewServer(AdminMux(reg, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 32*1024)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "circuitql_stage_total") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, `"circuitql_stage_total"`) {
		t.Fatalf("/metrics?format=json = %d %q", code, body)
	}
	if code, body := get("/trace/last"); code != 200 || !strings.Contains(body, StageServe) {
		t.Fatalf("/trace/last = %d %q", code, body)
	}
	if code, body := get("/trace/last?n=5"); code != 200 || !strings.Contains(body, "  "+StageCompile) {
		t.Fatalf("/trace/last?n=5 = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// Tracing disabled: /trace/last still answers.
	srv2 := httptest.NewServer(AdminMux(NewRegistry(), nil))
	defer srv2.Close()
	resp, err := srv2.Client().Get(srv2.URL + "/trace/last")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/trace/last without tracer = %d", resp.StatusCode)
	}
}
