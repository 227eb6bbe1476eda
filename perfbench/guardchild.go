package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"sqlciv/enforce"
)

// guardBatchPasses is how many passes over the query stream make one guard
// op. The kernel ticks every 4 ms (CONFIG_HZ=250) and a tick interrupt is
// charged to the thread it lands on; a single 0.3 ms pass either absorbed
// one or not, which put p95 on that boundary. A batch of about 75 ms on
// the reference host holds about 19 ticks, so every batch absorbs nearly
// the same number.
const guardBatchPasses = 100

// guardProbePower is how strongly guard batch times follow the speed
// probe (see speedProbe). The match loop allocates nothing and stays in
// cache, so when neighbours slow the host it slows less than the probe,
// which allocates and sorts: over five runs on the reference host a run's
// median batch time moved as the probe's factor to the power 0.72
// (correlation 0.94), and the full factor overcorrected.
const guardProbePower = 0.75

// guardBatch is the guard child's answer for one batch: its CPU time, the
// queries it checked and blocked, and its first wrong decision.
type guardBatch struct {
	MS      float64 `json:"ms"`
	Queries int     `json:"queries"`
	Blocked int     `json:"blocked"`
	Error   string  `json:"error,omitempty"`
	RSSMB   float64 `json:"rss_mb"` // the child's VmHWM after the batch
}

// err is the batch's first wrong decision, nil if it made none.
func (g guardBatch) err() error {
	if g.Error == "" {
		return nil
	}
	return errors.New(g.Error)
}

// guardSet holds one Guard per app, built from packs loaded through the
// public library.
type guardSet struct {
	guards []*enforce.Guard
	packs  []*enforce.Pack
}

func openGuards(paths []string) (*guardSet, error) {
	gs := &guardSet{}
	for _, p := range paths {
		pack, err := enforce.Open(p)
		if err != nil {
			gs.close()
			return nil, err
		}
		gs.packs = append(gs.packs, pack)
		gs.guards = append(gs.guards, enforce.NewGuard(pack, enforce.ModeBlock))
	}
	return gs, nil
}

func (gs *guardSet) close() {
	for _, p := range gs.packs {
		_ = p.Close()
	}
}

// checkExec runs one page execution's queries through its app's guard and
// returns how many were blocked and the first wrong decision.
func (gs *guardSet) checkExec(ex *guardExec, sql [][]byte) (blocked int, err error) {
	g := gs.guards[ex.App]
	for i := range ex.Queries {
		q := &ex.Queries[i]
		d := g.Check(q.Key, sql[i])
		if !d.Allowed {
			blocked++
		}
		if e := checkDecision(*q, d.Allowed); e != nil && err == nil {
			err = e
		}
	}
	return blocked, err
}

// checkBatch is one guard op: guardBatchPasses passes over the stream,
// every execution in order, on the calling goroutine. tl, when set, times
// each execution as a call into enforce.
func (gs *guardSet) checkBatch(stream []guardExec, sql [][][]byte, tl *timeline) (queries, blocked int, err error) {
	for p := 0; p < guardBatchPasses; p++ {
		for k := range stream {
			var nb int
			var e error
			if tl != nil {
				tl.call("enforce.match", func() { nb, e = gs.checkExec(&stream[k], sql[k]) })
			} else {
				nb, e = gs.checkExec(&stream[k], sql[k])
			}
			queries += len(stream[k].Queries)
			blocked += nb
			if e != nil && err == nil {
				err = e
			}
		}
	}
	return queries, blocked, err
}

// streamBytes converts every query to bytes once, before timing.
func streamBytes(stream []guardExec) [][][]byte {
	out := make([][][]byte, len(stream))
	for i, ex := range stream {
		for _, q := range ex.Queries {
			out[i] = append(out[i], []byte(q.SQL))
		}
	}
	return out
}

// wallClock, threadCPU and processCPUClock are the clocks a guard batch
// can be timed with: the timed run uses the guard child's process CPU
// time, the traced run compares wall times, and the speed probe uses its
// thread's CPU time.
func wallClock() time.Duration { return time.Duration(time.Now().UnixNano()) }

// threadCPU reads CLOCK_THREAD_CPUTIME_ID, which has nanosecond resolution.
func threadCPU() time.Duration { return cpuClock(3) }

// processCPUClock reads CLOCK_PROCESS_CPUTIME_ID: the CPU time of every
// thread of the calling process, the garbage collector's included.
func processCPUClock() time.Duration { return cpuClock(2) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// timeBatch runs one batch and times it with clock.
func (gs *guardSet) timeBatch(stream []guardExec, sql [][][]byte, clock func() time.Duration) guardBatch {
	t0 := clock()
	q, blocked, err := gs.checkBatch(stream, sql, nil)
	out := guardBatch{MS: ms(clock() - t0), Queries: q, Blocked: blocked}
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// runGuardChild is the guard workload's match process: it loads the packs
// through the public library, then answers every line on stdin with one
// batch, timed by the process's CPU clock, as one JSON line. The driver
// samples the speed probe in its own probe child before each line, so the
// probe never shares this process's heap or threads. The first batch the
// driver asks for is its untimed warm-up, which touches every pack page
// the stream reaches before the peak RSS it reports is read.
func runGuardChild(streamPath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench guard:", err)
		return 1
	}
	data, err := os.ReadFile(streamPath)
	if err != nil {
		return fail(err)
	}
	var files guardFiles
	if err := json.Unmarshal(data, &files); err != nil {
		return fail(err)
	}
	if len(files.Execs) == 0 {
		return fail(fmt.Errorf("empty guard stream"))
	}
	gs, err := openGuards(files.Packs)
	if err != nil {
		return fail(err)
	}
	defer gs.close()
	sql := streamBytes(files.Execs)
	runtime.LockOSThread()
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return 0
		}
		b := gs.timeBatch(files.Execs, sql, processCPUClock)
		if b.RSSMB, err = vmHWM(os.Getpid()); err != nil {
			return fail(err)
		}
		out, err := json.Marshal(b)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(out))
	}
}
