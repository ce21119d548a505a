package engine

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"circuitql/internal/store"
)

// TestCrashRecovery is the crash-recovery CI gate: a child process is
// SIGKILLed in the middle of a plan write-back (the store's slow-write
// hook holds the window between the temp-file write and the atomic
// rename open), and the surviving directory must contain zero corrupt
// artifacts, warm-start an engine, and serve every plan that had become
// visible before the kill without a single recompile.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("CIRCUITQL_CRASH_CHILD") == "1" {
		crashChild(t)
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CIRCUITQL_CRASH_CHILD=1",
		"CIRCUITQL_CRASH_DIR="+dir,
		// Hold every artifact write open for long enough that the parent
		// reliably lands SIGKILL inside one.
		"CIRCUITQL_STORE_SLOW_WRITE=1m",
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // double kill is fine

	// Phase 1 done: the child prints the marker only after its first
	// plan is durable, so the temp files of that fast write can't be
	// mistaken for the crash window.
	marker := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		var all strings.Builder
		for sc.Scan() {
			all.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "entering crash window") {
				marker <- all.String()
				return
			}
		}
		marker <- "EOF without marker:\n" + all.String()
	}()
	select {
	case got := <-marker:
		if strings.HasPrefix(got, "EOF") {
			t.Fatalf("child never reached the crash window; output:\n%s", got)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("child did not reach the crash window in time")
	}

	// Phase 2 in flight: a temp file in the store directory means the
	// child is asleep inside the crash window between its temp write and
	// the atomic rename.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no in-progress plan write appeared after the marker")
		}
		entries, err := os.ReadDir(dir)
		if err == nil {
			tmp := false
			for _, ent := range entries {
				if strings.HasSuffix(ent.Name(), ".tmp") {
					tmp = true
				}
			}
			if tmp {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed on purpose

	// Recovery: reopen the store. The torn write must be swept, and
	// every visible artifact must pass the full integrity check.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") || strings.HasSuffix(ent.Name(), ".corrupt") {
			t.Fatalf("crash left %s behind after recovery", ent.Name())
		}
	}
	for _, res := range st.Verify() {
		if res.Err != nil {
			t.Fatalf("artifact %s corrupt after crash: %v", res.FP.Short(), res.Err)
		}
	}
	// The child completed its first write before entering the window of
	// the second, so at least one plan must have survived.
	if st.Len() < 1 {
		t.Fatalf("no plans survived the crash (store has %d)", st.Len())
	}

	// Restart: every surviving plan serves warm, with zero compiles.
	eng := New(Config{Store: st})
	defer eng.Close()
	served := 0
	for _, name := range []string{"triangle", "path3"} {
		req := storeReq(t, name)
		if !st.HasPlan(reqFP(t, req)) {
			continue
		}
		res := eng.Serve(context.Background(), req)
		if res.Err != nil {
			t.Fatalf("post-crash serve %s: %v", name, res.Err)
		}
		if !res.CacheHit {
			t.Fatalf("post-crash serve %s missed the warm cache", name)
		}
		served++
	}
	if served < 1 {
		t.Fatal("no surviving plan was servable")
	}
	if m := eng.Metrics(); m.Compiles != 0 {
		t.Fatalf("post-crash engine recompiled %d plans, want 0", m.Compiles)
	}
}

// reqFP returns the request's canonical fingerprint.
func reqFP(t testing.TB, req Request) (fp [32]byte) {
	t.Helper()
	c, err := canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	return c.FP
}

// crashChild runs in the subprocess: it persists one plan with the
// slow-write hook disabled, then starts a second write that sleeps
// inside the crash window until the parent kills the process.
func crashChild(t *testing.T) {
	dir := os.Getenv("CIRCUITQL_CRASH_DIR")
	if dir == "" {
		t.Fatal("CIRCUITQL_CRASH_DIR not set")
	}
	// First plan: write at full speed so it becomes durable.
	os.Unsetenv("CIRCUITQL_STORE_SLOW_WRITE")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Store: st})
	if res := eng.Serve(context.Background(), storeReq(t, "triangle")); res.Err != nil {
		t.Fatal(res.Err)
	}
	eng.Close()
	if st.Len() != 1 {
		t.Fatalf("first plan not durable (store has %d)", st.Len())
	}

	// Second plan: reopen with the slow-write hook armed and persist —
	// PutPlan goes to sleep between the temp write and the rename, and
	// the parent SIGKILLs us there.
	os.Setenv("CIRCUITQL_STORE_SLOW_WRITE", "1m")
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := New(Config{Store: st2})
	fmt.Println("child: entering crash window")
	res := eng2.Serve(context.Background(), storeReq(t, "path3"))
	_ = res
	// Unreachable when the parent does its job; exiting cleanly here
	// makes the parent's tmp-file wait time out and fail the test.
	eng2.Close()
}
