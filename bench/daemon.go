package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the circuitql module
// root, so the harness works from the repo root and from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module circuitql\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no circuitql module root above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/circuitd from the working tree into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "circuitd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/circuitd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/circuitd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// lockedBuffer collects the child's stderr while the harness may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one child circuitd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // wire listener
	admin  string // admin listener, "" unless started with one
	flags  []string
	store  string // temp plan store, "" unless the workload has one
	stderr lockedBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// startDaemon execs circuitd listening on a free port and waits until
// it accepts connections. withAdmin adds the admin listener, which also
// switches the daemon's own request tracing on — end-to-end numbers
// therefore come from daemons started without it.
func startDaemon(bin, workDir string, w *workloadDef, withAdmin bool) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	var err error
	if d.addr, err = freeAddr(); err != nil {
		return nil, err
	}
	d.flags = append([]string{"-listen", d.addr}, w.Flags...)
	if withAdmin {
		if d.admin, err = freeAddr(); err != nil {
			return nil, err
		}
		d.flags = append(d.flags, "-admin", d.admin)
	}
	if w.Store {
		if d.store, err = os.MkdirTemp(workDir, "store-"); err != nil {
			return nil, err
		}
		d.flags = append(d.flags, "-store", d.store)
	}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive a harness that is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(d.store)
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady dials the wire port until it answers, the child exits, or
// the bound passes.
func (d *daemon) waitReady(bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		conn, err := net.DialTimeout("tcp", d.addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-d.exited:
			return d.failure("exited before listening")
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return d.failure(fmt.Sprintf("not listening on %s after %v", d.addr, bound))
		}
	}
}

// failure reports a daemon fault loudly, with everything it said.
func (d *daemon) failure(what string) error {
	return fmt.Errorf("circuitd %s: %s\n--- circuitd stderr ---\n%s", strings.Join(d.flags, " "), what, d.stderr.String())
}

// alive returns an error carrying the daemon's stderr if it has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return d.failure(fmt.Sprintf("exited early (%v)", d.err))
	default:
		return nil
	}
}

// stop kills the child, waits for it, and removes its temp store.
func (d *daemon) stop() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.exited
	if d.store != "" {
		os.RemoveAll(d.store)
	}
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape fetches /metrics from the admin listener and sums each family
// over its label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition into family → sum.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}
