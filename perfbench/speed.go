package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// speedProbe measures how fast the host runs a fixed piece of Go work,
// sampled beside every set-up unit and before every op. On the shared
// reference host the CPU time of identical sqlcheck scans drifted by up to
// 2x within minutes, as neighbours came and went; over 16 blocks of 25
// interleaved samples the scan's block medians spread 0.45 and their ratio
// to this probe's 0.08 (correlation 0.99). A probe confined to the L1
// cache barely moved, so the drift is in the memory system, which this
// probe's allocating and sorting share with the analyzer. Each CPU time is
// multiplied by its local factor, probeRefMS over the median of the
// probeWindow samples nearest it, raised to the series' power: it reads as
// CPU time at the reference host's speed at that moment. The probe runs no
// sqlciv code, so a change to the program cannot move the scale.
//
// Every sample comes from a probe child process (-probe-child), whose heap
// stays small and constant: run in the driver, the probe's time followed
// the driver's own heap, which serve-dev fills with request bodies. Run in
// the guard's match process, it would pay for the matcher's garbage.
type speedProbe struct {
	ms   []float64
	time func() (float64, error) // takes one sample, in ms
	// power is how strongly a scaled time follows the probe: it is
	// multiplied by its local factor raised to power.
	power float64
}

// probeRefMS is a round figure near the probe's median CPU time on the
// reference host (2 vCPUs of an Intel Xeon virtual machine), where it read
// 4.1-6.1 ms.
const probeRefMS = 5.0

// probeWindow is how many neighbouring samples a CPU time is scaled by.
const probeWindow = 25

// setupProbePower is how strongly set-up times follow the probe. Over the
// ten-run sets on the reference host, a run's set-up time moved as the
// probe's factor to a power between 0.53 and 0.96 (median 0.77), and
// scaling by the full factor overcorrected on most sets.
const setupProbePower = 0.75

var probeSink int

// probeKernel builds a map and a sorted slice of 12 000 short strings.
func probeKernel() {
	const n = 12_000
	m := make(map[string]int)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := "key" + strconv.Itoa(i*7919%100_003)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	probeSink += len(m) + len(keys[n/2])
}

// timeProbe times one probe on the calling thread's CPU clock, in ms.
func timeProbe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	probeKernel()
	return ms(threadCPU() - t0)
}

// lineChild is a child process of the driver that answers every line on
// its stdin with one line on its stdout: the probe child, and the guard
// workload's match process.
type lineChild struct {
	cmd  *exec.Cmd
	name string
	in   io.WriteCloser
	out  *bufio.Reader
}

// startLineChild starts this program again with the given arguments.
func startLineChild(args ...string) (*lineChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &lineChild{cmd: cmd, name: args[0], in: in, out: bufio.NewReader(out)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return c, nil
}

func startProbeChild() (*lineChild, error) { return startLineChild("-probe-child") }

// ask sends one line and returns the child's answer, without its newline.
func (c *lineChild) ask() (string, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return "", fmt.Errorf("%s: %w", c.name, err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("%s: %w", c.name, err)
	}
	return strings.TrimSpace(line), nil
}

// stop ends the child and waits for it.
func (c *lineChild) stop() {
	_ = c.in.Close()
	_ = c.cmd.Wait()
}

// probe returns a new series of samples taken through the probe child,
// scaling with the given power.
func (c *lineChild) probe(power float64) *speedProbe {
	return &speedProbe{time: c.probeTime, power: power}
}

func (c *lineChild) probeTime() (float64, error) {
	line, err := c.ask()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(line, 64)
	if err != nil {
		return 0, fmt.Errorf("probe child: %w", err)
	}
	return v, nil
}

// runProbeChild answers every line on stdin with one probe time in ms.
func runProbeChild() int {
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return 0
		}
		fmt.Printf("%.6f\n", timeProbe())
	}
}

// sample takes one probe sample. A nil probe (the traced run's) does
// nothing.
func (p *speedProbe) sample() error {
	if p == nil {
		return nil
	}
	v, err := p.time()
	if err != nil {
		return err
	}
	p.ms = append(p.ms, v)
	return nil
}

// factor is probeRefMS over the median of all samples; 1 without samples.
func (p *speedProbe) factor() float64 {
	if p == nil || len(p.ms) == 0 {
		return 1
	}
	return probeRefMS / percentile(p.ms, 50)
}

// localFactor is probeRefMS over the median of the probeWindow samples
// nearest sample i; 1 without samples.
func (p *speedProbe) localFactor(i int) float64 {
	if p == nil || len(p.ms) == 0 {
		return 1
	}
	lo := max(0, min(i-probeWindow/2, len(p.ms)-probeWindow))
	hi := min(len(p.ms), lo+probeWindow)
	return probeRefMS / percentile(p.ms[lo:hi], 50)
}

// scaled returns xs, sample i multiplied by localFactor(i) to the power
// p.power.
func (p *speedProbe) scaled(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * math.Pow(p.localFactor(i), p.power)
	}
	return out
}
