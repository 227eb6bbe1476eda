// Command perfbench is sqlciv's benchmark: four seeded workloads that drive
// the built sqlcheck and sqlcheckd binaries and the public sqlciv/enforce
// library from outside, check every operation's output against the corpus
// ground truth, and print one JSON result line. With -trace 1 it replays the
// workload in-process instead and reports per-layer self times.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload rescan-warm --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadSpec fixes how much work a timed run does. Ops come in rounds (a
// pass over the apps, a whole cycle of edit kinds, one guard batch), so
// every run does whole rounds and the same work whatever the seed. A run
// does max(minRounds, --seconds × perSecond / opsPerRound) rounds;
// perSecond is the op rate on the 2-core reference host, where a run then
// measures for about --seconds.
type workloadSpec struct {
	perSecond   float64
	opsPerRound int
	minRounds   int
	// setupReps is how many timed repetitions of each set-up unit follow
	// the untimed warm-up.
	setupReps int
}

var workloads = map[string]workloadSpec{
	// op: one cold sqlcheck scan of one app; a round is a pass over the
	// five apps, and ten passes give every app ten samples.
	"audit-cold": {perSecond: 4.5, opsPerRound: 5, minRounds: 10, setupReps: 5},
	// op: one warm sqlcheck scan after an edit; a round is ten passes,
	// one whole cycle of edit kinds per app.
	"rescan-warm": {perSecond: 11.5, opsPerRound: 50, minRounds: 2, setupReps: 5},
	// op: one sync POST /v1/analyze; a round is one cycle of serveKinds
	// per app. Four rounds give every op class at least 20 samples.
	"serve-dev": {perSecond: 11, opsPerRound: 50, minRounds: 4, setupReps: 5},
	// op: one batch of guardBatchPasses passes over the query stream
	// through Guard.Check.
	"guard": {perSecond: 12, opsPerRound: 1, minRounds: 120, setupReps: 3},
}

// rounds is how many rounds a timed run does.
func (b *bench) rounds() int {
	return max(b.spec.minRounds, int(math.Round(b.seconds*b.spec.perSecond/float64(b.spec.opsPerRound))))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	bin, work string
	workload  string
	spec      workloadSpec
	seed      int64
	seconds   float64
	apps      []*appInput
	// The speed probes sample the host beside every set-up unit and
	// before every op (see speedProbe); a nil probe does nothing.
	setupSpeed, opSpeed *speedProbe
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "audit-cold | rescan-warm | serve-dev | guard")
	seed := fs.Int64("seed", 1, "input seed: fixes app order, edits, branches and query streams")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = replay in-process and report per-layer metrics")
	root := fs.String("root", ".", "repository root; each run's work tree lives under <root>/.bench_work and is deleted when the run ends")
	bin := fs.String("bin", "", "directory holding the built sqlcheck and sqlcheckd")
	guardChild := fs.String("guard-child", "", "answer every line on stdin with one timed guard batch over this stream file (started by the guard workload)")
	probeChild := fs.Bool("probe-child", false, "answer every line on stdin with one speed-probe time (started by timed runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *guardChild != "" {
		return runGuardChild(*guardChild)
	}
	if *probeChild {
		return runProbeChild()
	}
	spec, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR --workload audit-cold|rescan-warm|serve-dev|guard --seed N --seconds S --trace 0|1")
		return 2
	}
	work, err := newWorkTree(*root, *workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer work.remove()
	b := &bench{
		bin: *bin, workload: *workload, spec: spec, seed: *seed, seconds: *seconds,
		work: work.dir, apps: loadApps(),
	}
	var res *result
	if *trace == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runTimed()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// workTree is one run's directory of generated apps, stores, packs and
// streams, <root>/.bench_work/<workload>-<pid>. remove deletes it; it runs
// when the run returns, whether it succeeded or not, and when the run is
// interrupted. Every child process is started with a parent-death signal,
// so none outlives an interrupted run.
type workTree struct {
	dir  string
	stop chan struct{}
	done chan struct{}
}

func newWorkTree(root, workload string) (*workTree, error) {
	base := filepath.Join(root, ".bench_work")
	dir := filepath.Join(base, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &workTree{dir: dir, stop: make(chan struct{}), done: make(chan struct{})}
	// A closed stdout or stderr must not kill the run before it removes
	// its tree: writes to them fail instead.
	signal.Ignore(syscall.SIGPIPE)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		defer close(w.done)
		defer signal.Stop(sig)
		select {
		case s := <-sig:
			removeTree(dir, base)
			fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
			os.Exit(1)
		case <-w.stop:
		}
	}()
	return w, nil
}

func (w *workTree) remove() {
	close(w.stop)
	<-w.done
	removeTree(w.dir, filepath.Dir(w.dir))
}

// removeTree deletes a run's directory, and .bench_work with it once no
// other run is using it.
func removeTree(dir, base string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove work tree:", err)
	}
	_ = os.Remove(base) // fails, harmlessly, while another run's tree is there
}

// runTimed runs the workload with tracing off and reports the end-to-end
// metrics.
func (b *bench) runTimed() (*result, error) {
	pc, err := startProbeChild()
	if err != nil {
		return nil, err
	}
	defer pc.stop()
	b.setupSpeed, b.opSpeed = pc.probe(setupProbePower), pc.probe(1)
	switch b.workload {
	case "audit-cold":
		return b.auditCold()
	case "rescan-warm":
		return b.rescanWarm()
	case "serve-dev":
		return b.serveDev()
	default:
		return b.guard()
	}
}

// setupPlan is a workload's set-up, cut into units (one app's store fill,
// prime or pack build). begin readies repetition rep (0 is the untimed
// warm-up); unit i of a repetition returns the CPU time of the system under
// test it cost.
type setupPlan struct {
	units int
	begin func(rep int) error
	unit  func(rep, i int) (time.Duration, error)
}

// setupTimes is a run's setup_s, unscaled and scaled by the speed probe.
type setupTimes struct{ raw, scaled float64 }

// measureSetup runs an untimed warm-up repetition of every unit, then
// setupReps timed repetitions, interleaved unit by unit with a speed-probe
// sample beside each. setup_s is the sum over units of each unit's median
// CPU time, in seconds; the scaled figure scales each sample first.
func (b *bench) measureSetup(p setupPlan) (setupTimes, error) {
	var samples []float64 // in the order taken, unit fastest
	for rep := 0; rep <= b.spec.setupReps; rep++ {
		if p.begin != nil {
			if err := p.begin(rep); err != nil {
				return setupTimes{}, fmt.Errorf("setup: %w", err)
			}
		}
		for i := 0; i < p.units; i++ {
			if rep > 0 {
				if err := b.setupSpeed.sample(); err != nil {
					return setupTimes{}, err
				}
			}
			cpu, err := p.unit(rep, i)
			if err != nil {
				return setupTimes{}, fmt.Errorf("setup: %w", err)
			}
			if rep > 0 {
				samples = append(samples, cpu.Seconds())
			}
		}
	}
	medians := func(xs []float64) (sum float64, each []string) {
		for i := 0; i < p.units; i++ {
			var unit []float64
			for k := i; k < len(xs); k += p.units {
				unit = append(unit, xs[k])
			}
			sum += percentile(unit, 50)
			each = append(each, fmt.Sprintf("%.3f", percentile(unit, 50)))
		}
		return sum, each
	}
	raw, each := medians(samples)
	scaled, _ := medians(b.setupSpeed.scaled(samples))
	fmt.Fprintf(os.Stderr, "perfbench: set-up unit medians (s): %s\n", strings.Join(each, " "))
	return setupTimes{raw: raw, scaled: scaled}, nil
}

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPct is the highest of p50, p75, p90, p95, p99 and p99.9 with at
// least ten of n samples beyond it.
func tailPct(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// opLog collects per-op CPU times (ms), their op classes and outcomes for
// one run.
type opLog struct {
	tally
	lat    []float64
	cls    []string
	failAt []int
}

func (l *opLog) add(ms float64, class string, err error) {
	l.record(err)
	if err != nil {
		l.failAt = append(l.failAt, len(l.lat))
	}
	l.lat = append(l.lat, ms)
	l.cls = append(l.cls, class)
}

// failedAtSlowest returns per-op times xs (the log's, scaled or not) with
// every failed op placed at the run's slowest time: a failed op misses any
// limit.
func (l *opLog) failedAtSlowest(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	worst := 0.0
	for _, v := range out {
		worst = math.Max(worst, v)
	}
	for _, i := range l.failAt {
		out[i] = worst
	}
	return out
}

// typical is the geometric mean over op classes of each class's median
// time. Every class weighs the same, and each holds the same ops whatever
// the seed (TestWorkCensusIsSeedInvariant), so the figure does not jump
// when a seed shifts a share: on serve-dev a comment edit costs a fraction
// of a branch switch.
func typical(lat []float64, cls []string) float64 {
	meds := classMedians(lat, cls)
	logSum := 0.0
	for _, m := range meds {
		logSum += math.Log(m)
	}
	return math.Exp(logSum / float64(len(meds)))
}

// classMedians is each op class's median time.
func classMedians(lat []float64, cls []string) map[string]float64 {
	by := map[string][]float64{}
	for i, x := range lat {
		by[cls[i]] = append(by[cls[i]], x)
	}
	meds := map[string]float64{}
	for c, xs := range by {
		meds[c] = percentile(xs, 50)
	}
	return meds
}

// endToEnd renders a run's end-to-end metrics from its log of per-op CPU
// times (ms) and its set-up times, both scaled by the speed probe. The
// unscaled metrics and the probe factors are printed on stderr as one
// "perfbench: raw" JSON line. elapsed is the wall time of the measured
// window, printed for reference only.
func (b *bench) endToEnd(l *opLog, elapsed time.Duration, setup setupTimes, rssMB float64) *result {
	tail := tailPct(len(l.lat))
	metrics := func(lat []float64, setupS float64) map[string]metric {
		lat = l.failedAtSlowest(lat)
		total := 0.0
		for _, x := range lat {
			total += x
		}
		return endToEndMetrics(setupS, typical(lat, l.cls), percentile(lat, tail), float64(len(lat))/(total/1000), rssMB)
	}
	raw := metrics(l.lat, setup.raw)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2fs wall, tail = p%g, %d failed\n",
		b.workload, len(l.lat), elapsed.Seconds(), tail, l.failed)
	if l.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", l.firstErr)
	}
	line := map[string]float64{"setup_factor": b.setupSpeed.factor(), "op_factor": b.opSpeed.factor()}
	for k, m := range raw {
		line[k] = m.Value
	}
	if data, err := json.Marshal(line); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: raw %s\n", data)
	}
	lat := b.opSpeed.scaled(l.lat)
	var parts []string
	for c, m := range classMedians(lat, l.cls) {
		parts = append(parts, fmt.Sprintf("%s=%.2f", c, m))
	}
	sort.Strings(parts)
	fmt.Fprintln(os.Stderr, "perfbench: class medians (ms):", strings.Join(parts, " "))
	return &result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: metrics(lat, setup.scaled)}
}

// endToEndMetrics names the end-to-end metrics every workload reports. The
// times are CPU time of the system under test, not wall time: on the
// shared reference host the hypervisor stole up to 40% of wall time for
// minutes at a stretch, which CPU time does not count.
func endToEndMetrics(setupS, opMS, tailMS, opsPerCPUS, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"op_cpu_ms":      {opMS, "ms"},
		"op_tail_cpu_ms": {tailMS, "ms"},
		"ops_per_cpu_s":  {opsPerCPUS, "1/s"},
		"peak_rss_mb":    {rssMB, "MB"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
