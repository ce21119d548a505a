package main

import (
	"bytes"
	"context"
	"errors"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"circuitql"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

const triangle = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"

// The exit summary prints after the engine has drained, so the plan a
// run's one miss persisted is in its store counters.
func TestSummaryCountsStoreWrites(t *testing.T) {
	writes := regexp.MustCompile(`store: .* writes=(\d+)`)
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		var out bytes.Buffer
		if code := run([]string{"-n", "4", "-store", dir}, strings.NewReader(triangle+"\n"), &out); code != 0 {
			t.Fatalf("run %d: exit %d\n%s", i, code, &out)
		}
		plans, _ := filepath.Glob(filepath.Join(dir, "*.plan"))
		m := writes.FindStringSubmatch(out.String())
		if len(plans) == 0 || m == nil || m[1] != strconv.Itoa(len(plans)) {
			t.Fatalf("run %d: %d .plan files, summary store line %q\n%s", i, len(plans), m, &out)
		}
	}
}

func TestDBWithListenRefused(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	code := run([]string{"-db", t.TempDir(), "-listen", "127.0.0.1:0"}, strings.NewReader(""), &bytes.Buffer{})
	if code != 2 || !strings.Contains(logged.String(), "-db") || !strings.Contains(logged.String(), "-listen") {
		t.Fatalf("exit %d, log %q: want 2 and an error naming -db and -listen", code, &logged)
	}
}

// A wire request is held to -gate-budget as a stdin line is.
func TestWireEvalHonorsGateBudget(t *testing.T) {
	eng := circuitql.NewEngine(circuitql.EngineConfig{})
	defer eng.Close()
	q := query.Triangle()
	req := circuitql.EngineRequest{Query: q, DCs: circuitql.UniformCardinalities(q, 4), DB: workload.ForQuery(q, 1, 4)}
	// The deadline only bounds a regression: a compile that trips its
	// own budget must fail at once, not retry until the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := <-(wireEval{eng, 1}).Submit(ctx, req)
	if !errors.Is(res.Err, circuitql.ErrBudgetExceeded) || errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("with a one-gate budget: err %v, want the gate budget's ErrBudgetExceeded", res.Err)
	}
	if res := <-(wireEval{eng, 0}).Submit(ctx, req); res.Err != nil {
		t.Fatalf("without a budget: %v", res.Err)
	}
}
