package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one njoind process on a loopback port chosen by the kernel.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	stderr chan struct{} // closed once the stderr drain has ended
	once   sync.Once
}

// startDaemon execs njoind on 127.0.0.1:0 and returns once it has printed
// the address it serves on. A non-empty dataDir makes it durable.
func startDaemon(bin, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark, also when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr for the process's whole life so it never blocks on
		// a full pipe; the loop ends when the process exits.
		defer close(d.stderr)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.stderr:
		d.stop()
		return nil, errors.New("njoind exited before serving")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("njoind did not start serving within 30s")
	}
}

// stop kills the process and waits for it and its stderr drain to end. It
// may be called more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill() // an already-exited process is fine
		_ = d.cmd.Wait()         // the exit status of a killed process is expected
		<-d.stderr
	})
}

// cpuMS returns the daemon's user+system CPU time from /proc/<pid>/stat,
// in milliseconds (clock ticks are 10 ms on Linux).
func (d *daemon) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", b)
	}
	return float64(ut+st) * 10, nil
}

// peakRSSMB returns the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// setUp brings one daemon from exec to serving: the graph uploaded (and
// snapshotted, when durable — the PUT returns after the snapshot is
// written) and one warm request answered. It returns the daemon and the
// elapsed seconds.
func setUp(ctx context.Context, hc *http.Client, bin, dataDir string, g *genGraph, warm request) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, dataDir)
	if err != nil {
		return nil, 0, err
	}
	if err := put(ctx, hc, d.base+"/graphs/"+graphName, g.text); err != nil {
		d.stop()
		return nil, 0, err
	}
	if o := send(ctx, hc, d.base, &warm); o.fail != "" {
		d.stop()
		return nil, 0, fmt.Errorf("warm request failed: %s", o.fail)
	}
	return d, time.Since(t0).Seconds(), nil
}

func put(ctx context.Context, hc *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // only read to reuse the connection and report errors
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: %s: %s", url, resp.Status, msg)
	}
	return nil
}
