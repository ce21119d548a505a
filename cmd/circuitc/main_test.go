package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"circuitql"
	"circuitql/internal/core"
)

// runMainEnv, set in a re-executed test binary's environment, makes
// TestMain run the command instead of the tests, so the tests drive
// main exactly as a shell does: flags in, output and exit status out.
const runMainEnv = "CIRCUITC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// circuitc runs the command with args and returns its combined output;
// err is non-nil when it exits non-zero.
func circuitc(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

const triangle = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"

// A -save file is the plan file LoadArtifact reads, and the plan in it
// answers a database conforming to the constraints as the RAM evaluator
// does.
func TestSaveLoadsAndEvaluates(t *testing.T) {
	dir := t.TempDir()
	plan, dbDir := filepath.Join(dir, "triangle.plan"), filepath.Join(dir, "db")
	out, err := circuitc(t, "-query", triangle, "-n", "16", "-save", plan,
		"-export", dbDir, "-export-n", "16", "-export-seed", "3")
	if err != nil {
		t.Fatalf("circuitc: %v\n%s", err, out)
	}
	ctx := context.Background()
	f, err := os.Open(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	art, err := circuitql.LoadArtifact(ctx, f)
	if err != nil {
		t.Fatalf("LoadArtifact on the -save file: %v", err)
	}
	db, err := circuitql.LoadColumnarDB(dbDir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := circuitql.ParseQuery(triangle)
	if err != nil {
		t.Fatal(err)
	}
	want, err := circuitql.EvaluateRAM(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("Q(D) is empty; the comparison would verify nothing")
	}
	got, err := art.Evaluate(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("saved plan answered %d rows, RAM %d", got.Len(), want.Len())
	}
}

// -no-oblivious compiles no plan, so there is nothing to -save.
func TestSaveRefusesRelationalOnly(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "p.plan")
	if out, err := circuitc(t, "-no-oblivious", "-save", plan); err == nil {
		t.Fatalf("-save with -no-oblivious exited 0:\n%s", out)
	}
	if _, err := os.Stat(plan); !os.IsNotExist(err) {
		t.Fatalf("refused -save left a file behind (stat: %v)", err)
	}
}

// The printed fingerprint is the one the engine keys the pair on.
func TestFingerprintIsQueryFingerprint(t *testing.T) {
	for _, c := range []struct{ src, dc string }{
		{triangle, ""},
		{triangle, "S|B <= 2"},
		{"Q(A,B,C) :- R(A,B), R(A,B), S(B,C)", ""},
	} {
		out, err := circuitc(t, "-no-oblivious", "-n", "8", "-query", c.src, "-dc", c.dc)
		if err != nil {
			t.Fatalf("%s ; %s: %v\n%s", c.src, c.dc, err, out)
		}
		q, err := circuitql.ParseQuery(c.src)
		if err != nil {
			t.Fatal(err)
		}
		dcs := circuitql.UniformCardinalities(q, 8)
		if c.dc != "" {
			extra, err := circuitql.ParseConstraints(q, c.dc)
			if err != nil {
				t.Fatal(err)
			}
			dcs = append(dcs, extra...)
		}
		fp, err := circuitql.QueryFingerprint(q, dcs)
		if err != nil {
			t.Fatal(err)
		}
		if want := "fingerprint:      " + fp.Short() + "\n"; !strings.Contains(out, want) {
			t.Errorf("%s ; %s: output lacks %q:\n%s", c.src, c.dc, want, out)
		}
	}
}

// The vm: line is the program the compile built with the plan; a
// relational-only compile builds none and prints none.
func TestPrintsVMProgram(t *testing.T) {
	q, err := circuitql.ParseQuery(triangle)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompileQueryOptsCtx(context.Background(), q, circuitql.UniformCardinalities(q, 8), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Prog
	swaps, lexes := p.Fused()
	want := fmt.Sprintf("vm:               %d instructions (%d swap, %d lex), %d slots, %d levels, %d runs\n",
		p.Instructions(), swaps, lexes, p.Slots(), p.Levels(), p.Runs())
	out, err := circuitc(t, "-n", "8", "-query", triangle)
	if err != nil {
		t.Fatalf("circuitc: %v\n%s", err, out)
	}
	if !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	out, err = circuitc(t, "-no-oblivious", "-n", "8", "-query", triangle)
	if err != nil {
		t.Fatalf("circuitc -no-oblivious: %v\n%s", err, out)
	}
	if strings.Contains(out, "vm:") {
		t.Errorf("-no-oblivious printed a vm program:\n%s", out)
	}
}
