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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// writeApp materializes sources under dir.
func writeApp(dir string, sources map[string]string) error {
	for path, src := range sources {
		if err := writeFile(filepath.Join(dir, filepath.FromSlash(path)), src); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o644)
}

// childEnv is the environment of every process the benchmark starts: the
// default persistent stores resolve under cacheHome, isolated per app or
// per daemon.
func childEnv(cacheHome string) []string {
	env := []string{"XDG_CACHE_HOME=" + cacheHome}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "XDG_CACHE_HOME=") {
			env = append(env, kv)
		}
	}
	return env
}

// childAttr makes a child receive SIGKILL when the benchmark dies, so an
// interrupted run leaves no process behind.
func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

// procResult is one finished child process.
type procResult struct {
	elapsed  time.Duration
	user     time.Duration // user-mode CPU time of the child and its threads
	sys      time.Duration // kernel-mode CPU time of the child and its threads
	exitCode int
	stdout   []byte
	stderr   []byte
	maxRSSKB int64
}

// runProc runs a child to completion and reports its wall time, exit code
// and peak RSS. A process that cannot start is an error; a nonzero exit is
// not (the caller's oracle judges exit codes).
func runProc(env []string, name string, args ...string) (procResult, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = env
	cmd.SysProcAttr = childAttr()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := procResult{elapsed: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	if cmd.ProcessState == nil {
		return r, fmt.Errorf("%s: %w", filepath.Base(name), err)
	}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return r, fmt.Errorf("%s: %w", filepath.Base(name), err)
	}
	r.exitCode = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
		r.user, r.sys = time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
	}
	return r, nil
}

// processCPU is the CPU time a live process's threads have used so far,
// summed from their scheduler statistics (nanosecond resolution).
func processCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no scheduler statistics for pid %d", pid)
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// sqlcheckArgs scans one app directory on one worker, with its entry pages
// named explicitly (the directory-name heuristic would miss some).
func sqlcheckArgs(a *appInput, dir string, extra ...string) []string {
	args := append([]string{"-parallel", "1", "-json"}, extra...)
	for _, e := range a.Entries {
		args = append(args, "-entry", e)
	}
	return append(args, dir)
}

// daemon is a running sqlcheckd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startDaemon starts sqlcheckd with default flags on a loopback port and
// waits until it answers /healthz.
func startDaemon(bin, cacheHome string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "sqlcheckd"), "-addr", "127.0.0.1:0")
	cmd.Env = childEnv(cacheHome)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sqlcheckd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sent := false
		for lines.Scan() {
			if i := strings.Index(lines.Text(), "http://"); i >= 0 && !sent {
				f := strings.Fields(lines.Text()[i:])
				addr <- f[0]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		_ = cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, errors.New("sqlcheckd exited before listening")
		}
		d.base = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("sqlcheckd did not start listening within 30s")
	}
	for i := 0; i < 300; i++ {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("sqlcheckd never became healthy")
}

// analyze posts one sync analysis request and returns the status, body and
// round-trip time.
func (d *daemon) analyze(tenant string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, d.base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Sqlciv-Tenant", tenant)
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(start), err
}

// analyzeCPU is analyze, plus the daemon CPU time the request cost.
func (d *daemon) analyzeCPU(tenant string, body []byte) (time.Duration, int, []byte, time.Duration, error) {
	c0, err := d.cpu()
	if err != nil {
		return 0, 0, nil, 0, err
	}
	status, resp, rtt, err := d.analyze(tenant, body)
	c1, cerr := d.cpu()
	if err == nil {
		err = cerr
	}
	return c1 - c0, status, resp, rtt, err
}

// metrics scrapes /metrics into name{labels} → value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// cpu is the CPU time the daemon has used so far.
func (d *daemon) cpu() (time.Duration, error) { return processCPU(d.cmd.Process.Pid) }

// stop terminates the daemon gracefully and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// userCPU is an exited daemon's user-mode CPU time.
func (d *daemon) userCPU() time.Duration {
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return time.Duration(ru.Utime.Nano())
	}
	return 0
}

// vmHWM reads a live process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
