package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"busprobe/internal/clock"
	"busprobe/internal/lab"
)

// wallNow reads the wall clock through the sanctioned clock package.
func wallNow() time.Time { return clock.Wall{}.Now() }

// since is the wall time elapsed after t.
func since(t time.Time) time.Duration { return clock.Since(clock.Wall{}, t) }

// serverProc is one busprobe-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	out  *lockedBuffer
	done chan struct{} // closed once the process has been reaped
}

// lockedBuffer collects the child's output for error reports.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer //lint:guardedby mu
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

// bootServer starts busprobe-server on a free loopback port with the
// benchmark world's flags plus extra, and returns once /healthz answers
// 200. The returned duration runs from exec to that first 200: the
// world build, the fingerprint survey and any store recovery.
func bootServer(ctx context.Context, bin string, extra ...string) (*serverProc, time.Duration, error) {
	port, err := lab.FreePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-seed", strconv.Itoa(worldSeed), "-world", worldPreset}, extra...)
	p := &serverProc{url: "http://" + addr, out: &lockedBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := wallNow()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() //lint:allow errcheckio the exit status is irrelevant once the benchmark stops the server; an early exit surfaces as a boot failure
		close(p.done)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		if healthy(ctx, probe, p.url) {
			return p, since(start), nil
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("busprobe-server exited during boot:\n%s", p.out.String())
		case <-ctx.Done():
			p.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if wallNow().After(deadline) {
			p.kill()
			return nil, 0, fmt.Errorf("busprobe-server not healthy after 60s:\n%s", p.out.String())
		}
	}
}

// healthy reports whether the server's liveness probe answers 200.
func healthy(ctx context.Context, c *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) //lint:allow errcheckio draining a probe response; only the status matters
	_ = resp.Body.Close()                 //lint:allow errcheckio read-only probe body
	return resp.StatusCode == http.StatusOK
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; a server that does not exit in time is killed.
func (p *serverProc) stop() {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-p.done:
			return
		case <-time.After(30 * time.Second):
		}
	}
	p.kill()
}

// kill ends the server at once and waits for it to be reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() //lint:allow errcheckio the process may already have exited; the wait below is what matters
	<-p.done
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// copyTree copies a store directory (regular files, one level of
// subdirectories deep or more) so every boot recovers a pristine copy.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// cpuSeconds reads the server's user plus system CPU time from
// /proc/<pid>/stat (in USER_HZ ticks of 10 ms).
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times %q %q", p.cmd.Process.Pid, fields[11], fields[12])
	}
	return float64(utime+stime) / 100, nil
}
