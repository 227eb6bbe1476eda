package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/obs"
	"sqlciv/internal/php"
	"sqlciv/internal/policy"
	"sqlciv/internal/vcache"
)

// The traced run drives the program's own code in-process, on one worker,
// and times it per layer without a second copy of any of it: core's tracer
// (core.Options.Tracer) reports a span per phase, page and hotspot, with
// check spans under each hotspot; the benchmark adds intervals only for the
// calls it makes itself (the op, core.AnalyzeApp, the verdict store's flush,
// the enforce library) and for parse-tree loads, through a resolver that
// wraps the one core is given. Every span and interval lands on one clock,
// and each instant of an op is charged to the innermost one covering it, so
// the per-layer self times add up to the op.

// interval is one timed piece of an op, in ns since the op began.
type interval struct {
	layer      string
	start, end int64
}

// coreEvent is one of core's spans, placed on the op's clock: it ends when
// the tracer hands it to the timeline.
type coreEvent struct {
	id, parent uint64
	cat, name  string
	replayed   bool
	start, end int64
	counters   map[string]int64
}

// allocSample is the runtime's cumulative heap allocation at one instant.
type allocSample struct {
	t     int64
	bytes uint64
}

// timeline records one traced op. It is core's trace sink: core's tracer
// emits each span as it ends, on the goroutine that ran it. A nil timeline
// is the untraced replay and records nothing.
type timeline struct {
	t0      time.Time
	allocs  bool
	spans   []interval
	events  []coreEvent
	samples []allocSample
	sample  []metrics.Sample
	// phase1 is where core's string-analysis phase began; -1 until it ends.
	phase1 int64
}

func newTimeline(allocs bool) *timeline {
	return &timeline{allocs: allocs, sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (tl *timeline) now() int64 { return time.Since(tl.t0).Nanoseconds() }

// mark takes an allocation sample at t.
func (tl *timeline) mark(t int64) {
	if !tl.allocs {
		return
	}
	metrics.Read(tl.sample)
	tl.samples = append(tl.samples, allocSample{t, tl.sample[0].Value.Uint64()})
}

// begin starts a new op.
func (tl *timeline) begin() {
	if tl == nil {
		return
	}
	tl.t0 = time.Now()
	tl.spans, tl.events, tl.samples, tl.phase1 = tl.spans[:0], tl.events[:0], tl.samples[:0], -1
	tl.mark(0)
}

// call runs f as a call into layer.
func (tl *timeline) call(layer string, f func()) {
	if tl == nil {
		f()
		return
	}
	t := tl.now()
	tl.mark(t)
	f()
	end := tl.now()
	tl.mark(end)
	tl.spans = append(tl.spans, interval{layer, t, end})
}

// Emit implements obs.Sink.
func (tl *timeline) Emit(e *obs.Event) {
	end := tl.now()
	tl.mark(end)
	ce := coreEvent{id: e.ID, parent: e.Parent, cat: e.Cat, name: e.Name, replayed: e.Attrs["replayed"] != "",
		start: max(0, end-1000*e.DurUS), end: end, counters: e.Counters}
	if ce.parent == 0 && ce.name == "string-analysis" {
		tl.phase1 = ce.start
	}
	tl.events = append(tl.events, ce)
}

// Close implements obs.Sink.
func (tl *timeline) Close() error { return nil }

// timedResolver is the resolver core is given: it times every parse-tree
// load as the php layer and counts the files it parses. Through its
// embedded MapResolver it still exposes the sources core hashes on the
// incremental path, whose loads go through the session's own resolver.
type timedResolver struct {
	*analysis.MapResolver
	tl          *timeline
	files, size float64
}

func (r *timedResolver) Load(path string) (f *php.File, ok bool) {
	_, m0 := r.ParseCacheStats()
	r.tl.call("php", func() { f, ok = r.MapResolver.Load(path) })
	if _, m1 := r.ParseCacheStats(); m1 > m0 {
		r.files++
		r.size += float64(len(r.Sources[path]))
	}
	return f, ok
}

// analyze runs core.AnalyzeApp on one worker over sources, as sqlcheck
// -parallel 1 and a daemon worker run it, traced when tl is set. Its
// result carries the per-op counts the ledger keeps.
func (tl *timeline) analyze(l *ledger, sources map[string]string, entries []string, opts core.Options) (res *core.AppResult, err error) {
	opts.Parallel, opts.ParallelHotspots = 1, 1
	if tl == nil {
		return core.AnalyzeApp(analysis.NewMapResolver(sources), entries, opts)
	}
	r := &timedResolver{MapResolver: analysis.NewMapResolver(sources), tl: tl}
	tr := obs.New(tl)
	opts.Tracer = tr
	tl.call("core", func() { res, err = core.AnalyzeApp(r, entries, opts) })
	_ = tr.Close()
	if err != nil {
		return nil, err
	}
	c := tr.Counters()
	l.count("php.files", r.files)
	l.count("php.kb", r.size/1024)
	hotspots := 0
	for _, e := range tl.events {
		switch {
		case e.cat == "page" && !e.replayed:
			l.count("analysis.pages", 1)
		case e.cat == "hotspot":
			hotspots++
		}
	}
	hits := c["verdict.cache.hits"] + c["verdict.cache.disk.hits"]
	l.count("analysis.grammar_r", float64(c["grammar.prods"]))
	l.count("policy.prepare.hotspots", float64(hotspots))
	l.count("policy.prepare.slice_r", float64(c["compact.prods.in"]))
	l.count("policy.prepare.compact_r", float64(c["compact.prods.out"]))
	l.count("policy.check.cascades", float64(int64(hotspots)-hits))
	l.count("vcache.disk_hits", float64(c["verdict.cache.disk.hits"]))
	l.count("vcache.disk_misses", float64(c["verdict.cache.disk.misses"]))
	if in := res.Incr; in != nil {
		l.session = true
		l.count("incr.files_parsed", float64(in.FilesParsed))
		l.count("incr.pages", float64(in.PagesReplayed+in.PagesRecomputed))
		l.count("incr.pages_replayed", float64(in.PagesReplayed))
		l.count("incr.hotspots_rechecked", float64(in.HotspotsRechecked))
	}
	return res, nil
}

// layers resolves every core span to the layer it belongs to: a check or
// witness span and everything under it is the check cascade, the rest of
// a hotspot span is preparation (slicing, compaction, fingerprinting, the
// verdict-cache probes), a recomputed page is phase 1 and a replayed one
// the session's. Core's own time between its spans, and the call up to
// where phase 1 begins (hashing the project), belong to the session on
// the incremental path; on a cold run they stay unattributed.
func (tl *timeline) layers(session bool) []interval {
	byID := make(map[uint64]*coreEvent, len(tl.events))
	for i := range tl.events {
		byID[tl.events[i].id] = &tl.events[i]
	}
	driver := "op"
	if session {
		driver = "core.session"
	}
	out := make([]interval, 0, len(tl.spans)+len(tl.events)+1)
	for _, s := range tl.spans {
		if s.layer == "core" {
			if session && tl.phase1 > s.start {
				out = append(out, interval{"incr.hash", s.start, tl.phase1})
			}
			s.layer = driver
		}
		out = append(out, s)
	}
	for i := range tl.events {
		e := &tl.events[i]
		layer := driver
	up:
		for cur := e; cur != nil && cur.parent != 0; cur = byID[cur.parent] {
			switch cur.cat {
			case "check", "witness":
				layer = "policy.check"
				break up
			case "hotspot":
				layer = "policy.prepare"
				break up
			case "page":
				layer = "analysis"
				if cur.replayed {
					layer = "core.session"
				}
				break up
			}
		}
		out = append(out, interval{layer, e.start, e.end})
	}
	return out
}

// segment is a stretch of an op charged to one layer.
type segment struct {
	layer      string
	start, end int64
}

// segments cuts [0, end) into stretches, each charged to the shortest
// interval covering it. Calls on one goroutine nest, so the shortest
// covering interval is the innermost; it also stays the innermost where
// the microsecond rounding of core's span times lets a child begin a
// fraction before its parent.
func segments(ivs []interval, end int64) []segment {
	ivs = append(ivs, interval{"op", 0, end})
	cuts := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var out []segment
	var active []interval
	next := 0
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a == b || a >= end {
			continue
		}
		for next < len(ivs) && ivs[next].start <= a {
			active = append(active, ivs[next])
			next++
		}
		kept := active[:0]
		best := -1
		for _, iv := range active {
			if iv.end <= a {
				continue
			}
			kept = append(kept, iv)
			if best < 0 || iv.end-iv.start < kept[best].end-kept[best].start {
				best = len(kept) - 1
			}
		}
		active = kept
		layer := active[best].layer
		if n := len(out); n > 0 && out[n-1].layer == layer && out[n-1].end == a {
			out[n-1].end = min(b, end)
			continue
		}
		out = append(out, segment{layer, a, min(b, end)})
	}
	return out
}

// ledger sums a traced run's per-layer self time, allocation and counts
// over its ops.
type ledger struct {
	ns      map[string]int64
	allocB  map[string]float64
	counts  map[string]float64
	ops     int
	opNS    int64
	session bool // the ops ran on core's incremental path
}

func newLedger() *ledger {
	return &ledger{ns: map[string]int64{}, allocB: map[string]float64{}, counts: map[string]float64{}}
}

func (l *ledger) count(name string, v float64) { l.counts[name] += v }

// end closes the op tl recorded and folds it into the ledger. Each
// allocation sample's increase is spread over the segments between it and
// the sample before, in proportion to their length. It returns the op's
// duration.
func (tl *timeline) end(l *ledger) time.Duration {
	end := tl.now()
	tl.mark(end)
	segs := segments(tl.layers(l.session), end)
	for _, s := range segs {
		l.ns[s.layer] += s.end - s.start
	}
	sort.Slice(tl.samples, func(i, j int) bool { return tl.samples[i].t < tl.samples[j].t })
	from := func(t int64) int { return sort.Search(len(segs), func(j int) bool { return segs[j].end > t }) }
	for i := 1; i < len(tl.samples); i++ {
		a, b := tl.samples[i-1], tl.samples[i]
		delta := float64(b.bytes - a.bytes)
		if b.t <= a.t {
			l.allocB[segs[min(from(a.t), len(segs)-1)].layer] += delta
			continue
		}
		for j := from(a.t); j < len(segs) && segs[j].start < b.t; j++ {
			overlap := min(segs[j].end, b.t) - max(segs[j].start, a.t)
			l.allocB[segs[j].layer] += delta * float64(overlap) / float64(b.t-a.t)
		}
	}
	l.ops++
	l.opNS += end
	return time.Duration(end)
}

// perLayerMetrics is every per-layer row, in report order. The rows marked
// sum are self times per op that, with unattributed.ms, add up to the
// traced op time. The others describe set-up work (enforce compile and
// load, per pack pass), the daemon's side of a served request (server.*),
// counts, ratios, the tracing overhead, and outside.ms: the timed op's
// wall time minus the untraced replay's.
var perLayerMetrics = []struct {
	name, unit string
	sum        bool
}{
	{"php.ms", "ms", true}, {"php.files", "count", false}, {"php.kb", "kB", false},
	{"analysis.ms", "ms", true}, {"analysis.pages", "count", false},
	{"analysis.grammar_r", "count", false}, {"analysis.alloc_mb", "MB", false},
	{"policy.prepare.ms", "ms", true}, {"policy.prepare.hotspots", "count", false},
	{"policy.prepare.slice_r", "count", false}, {"policy.prepare.compact_r", "count", false},
	{"policy.prepare.alloc_mb", "MB", false},
	{"policy.check.ms", "ms", true}, {"policy.check.cascades", "count", false},
	{"policy.check.hit_pct", "%", false}, {"policy.check.alloc_mb", "MB", false},
	{"vcache.flush_ms", "ms", true}, {"vcache.disk_misses", "count", false}, {"vcache.disk_hits", "count", false},
	{"core.session.ms", "ms", true}, {"incr.hash_ms", "ms", true}, {"incr.files_parsed", "count", false},
	{"incr.page_replay_pct", "%", false}, {"incr.hotspots_rechecked", "count", false},
	{"server.wire_ms", "ms", false}, {"server.queue_ms", "ms", false}, {"server.run_ms", "ms", false},
	{"server.req_kb", "kB", false}, {"server.rejected", "count", false},
	{"enforce.compile_ms", "ms", false}, {"enforce.compile_alloc_mb", "MB", false},
	{"enforce.states", "count", false}, {"enforce.pack_kb", "kB", false}, {"enforce.load_ms", "ms", false},
	{"enforce.match_ms", "ms", true}, {"enforce.match_ns", "ns", false}, {"enforce.block_pct", "%", false},
	{"unattributed.ms", "ms", true}, {"trace.overhead_pct", "%", false}, {"outside.ms", "ms", false},
}

// rows turns the ledger into per-op layer rows. Every row exists on every
// workload, 0 where the layer is idle.
func (l *ledger) rows() map[string]float64 {
	v := map[string]float64{}
	n := float64(max(l.ops, 1))
	for layer, row := range map[string]string{
		"php": "php.ms", "analysis": "analysis.ms", "policy.prepare": "policy.prepare.ms",
		"policy.check": "policy.check.ms", "vcache.flush": "vcache.flush_ms", "core.session": "core.session.ms",
		"incr.hash": "incr.hash_ms", "enforce.match": "enforce.match_ms", "op": "unattributed.ms",
	} {
		v[row] = float64(l.ns[layer]) / 1e6 / n
	}
	for _, layer := range []string{"analysis", "policy.prepare", "policy.check"} {
		v[layer+".alloc_mb"] = l.allocB[layer] / (1 << 20) / n
	}
	for _, c := range []string{"php.files", "php.kb", "analysis.pages", "analysis.grammar_r",
		"policy.prepare.hotspots", "policy.prepare.slice_r", "policy.prepare.compact_r",
		"policy.check.cascades", "vcache.disk_misses", "vcache.disk_hits",
		"incr.files_parsed", "incr.hotspots_rechecked"} {
		v[c] = l.counts[c] / n
	}
	if h := l.counts["policy.prepare.hotspots"]; h > 0 {
		v["policy.check.hit_pct"] = 100 * (h - l.counts["policy.check.cascades"]) / h
	}
	if p := l.counts["incr.pages"]; p > 0 {
		v["incr.page_replay_pct"] = 100 * l.counts["incr.pages_replayed"] / p
	}
	return v
}

// layerResult renders the traced run: every per-layer row, plus a check
// that the summed rows close on the traced op time.
func (b *bench) layerResult(l *ledger, t tally, extra map[string]float64) (*result, error) {
	v := l.rows()
	for k, x := range extra {
		v[k] = x
	}
	opMS := float64(l.opNS) / 1e6 / float64(max(l.ops, 1))
	sum := 0.0
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
		if m.sum {
			sum += v[m.name]
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d ops, op %.4f ms = layer rows %.4f ms + unattributed %.4f ms\n",
		b.workload, l.ops, opMS, sum-v["unattributed.ms"], v["unattributed.ms"])
	if d := sum - opMS; d > 1e-6*opMS+1e-9 || d < -(1e-6*opMS+1e-9) {
		return nil, fmt.Errorf("ledger does not close: rows sum to %.6f ms, op is %.6f ms", sum, opMS)
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}, nil
}

// runTraced replays the workload in-process, one goroutine, timing the
// calls into each layer.
func (b *bench) runTraced() (*result, error) {
	switch b.workload {
	case "audit-cold":
		return b.scanTraced(false)
	case "rescan-warm":
		return b.scanTraced(true)
	case "serve-dev":
		return b.serveTraced()
	default:
		return b.guardTraced()
	}
}

// loadDir reads every .php file under dir, as sqlcheck does.
func loadDir(dir string) (map[string]string, error) {
	sources := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".php") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sources[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	return sources, err
}

// replayScan is one sqlcheck -parallel 1 scan run in-process as sqlcheck's
// main runs it: read the directory, open the app's verdict store, analyze,
// close the store (which flushes it). It returns the op's wall time.
func replayScan(tl *timeline, l *ledger, a *appInput, dir, cacheHome string) (fs []finding, d time.Duration, err error) {
	start := time.Now()
	tl.begin()
	sources, err := loadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	store, err := vcache.Open(storeDir(cacheHome))
	if err != nil {
		return nil, 0, err
	}
	res, err := tl.analyze(l, sources, a.Entries, core.Options{VerdictCache: store})
	tl.call("vcache.flush", func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	})
	if tl != nil {
		d = tl.end(l)
	} else {
		d = time.Since(start)
	}
	if err != nil {
		return nil, d, err
	}
	return findingsOf(res), d, nil
}

// scanTraced runs each op three ways on the same inputs: the timed binary,
// an in-process replay without tracing and one with it. The replay's
// findings must equal the binary's. It replays whole passes until
// --seconds have passed.
func (b *bench) scanTraced(warm bool) (*result, error) {
	passes := b.rounds()
	if warm {
		passes *= len(editKinds)
	}
	plan := makeScanPlan(b.seed, b.workload, b.apps, passes, warm)
	if err := b.writeApps(); err != nil {
		return nil, err
	}
	fill := b.scanSetup()
	for i := range b.apps {
		if _, err := fill.unit(0, i); err != nil {
			return nil, err
		}
	}
	tl, l := newTimeline(true), newLedger()
	var t tally
	var binMS, plainMS, replayMS float64
	edited := map[int]string{}
	start := time.Now()
	for p := 0; p < len(plan.Order) && (p == 0 || time.Since(start).Seconds() < b.seconds); p++ {
		for _, ai := range plan.Order[p] {
			a := b.apps[ai]
			var probe *edit
			if warm {
				e := plan.Edits[p][ai]
				if err := b.applyEdit(a, edited[ai], e); err != nil {
					return nil, err
				}
				edited[ai], probe = e.File, e.probe()
			}
			// Each of the three runs of a cold op gets its own empty store.
			home := func(tag string) string {
				if warm {
					return b.fillHome(a, 0)
				}
				return b.storeHome(a, fmt.Sprintf("op%d%s", p, tag))
			}
			r, want, err := b.scan(a, home(""), probe)
			if err != nil {
				t.record(err)
				continue
			}
			binMS += ms(r.elapsed)
			_, d, err := replayScan(nil, nil, a, b.appDir(a), home("-plain"))
			if err != nil {
				return nil, err
			}
			plainMS += ms(d)
			got, d, err := replayScan(tl, l, a, b.appDir(a), home("-traced"))
			replayMS += ms(d)
			if err == nil {
				err = checkCensus(a, got, probe)
			}
			if err == nil && !sameFindings(got, want) {
				err = fmt.Errorf("%s: replay findings differ from sqlcheck's", a.Slug)
			}
			t.record(err)
		}
	}
	n := float64(l.ops)
	return b.layerResult(l, t, map[string]float64{
		"trace.overhead_pct": 100 * (replayMS/plainMS - 1),
		"outside.ms":         (binMS - plainMS) / n,
	})
}

// replica is one in-process stand-in for the daemon: its verdict store,
// its resident checker, and a resident incremental session per app.
type replica struct {
	store    *vcache.Store
	c        *policy.Checker
	sessions map[int]*core.Session
	ms       float64
}

func newReplica(dir string) (*replica, error) {
	store, err := vcache.Open(dir)
	if err != nil {
		return nil, err
	}
	c := policy.New()
	c.Memoize = true
	c.Disk = store
	return &replica{store: store, c: c, sessions: map[int]*core.Session{}}, nil
}

// request is one incremental analysis request run as a daemon worker runs
// it: core.AnalyzeApp on the resident checker and the app's resident
// session, then a flush of the verdict store. It returns the op's wall
// time.
func (rp *replica) request(tl *timeline, l *ledger, ai int, a *appInput, sources map[string]string) (fs []finding, d time.Duration, err error) {
	start := time.Now()
	tl.begin()
	ses := rp.sessions[ai]
	if ses == nil {
		ses = core.NewSession(core.SessionConfig{})
		rp.sessions[ai] = ses
	}
	res, err := tl.analyze(l, sources, a.Entries, core.Options{Checker: rp.c, Session: ses, Incremental: true})
	tl.call("vcache.flush", func() {
		if ferr := rp.store.Flush(); err == nil {
			err = ferr
		}
	})
	if tl != nil {
		d = tl.end(l)
	} else {
		d = time.Since(start)
	}
	if err != nil {
		return nil, d, err
	}
	return findingsOf(res), d, nil
}

// serveTraced drives the daemon over one cycle of requests per app, as the
// timed run does, reading the daemon's side of each request from /metrics;
// then it replays the same requests in-process on one goroutine. Each
// replayed request's findings must equal the daemon's response to it.
func (b *bench) serveTraced() (*result, error) {
	plan := makeServePlan(b.seed, b.apps, 1)
	br := &branches{apps: b.apps}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setup := b.serveSetup(plan, br, &d)
	if err := setup.begin(0); err != nil {
		return nil, err
	}
	for ai := range b.apps {
		if _, err := setup.unit(0, ai); err != nil {
			return nil, err
		}
	}
	before, err := d.metrics()
	if err != nil {
		return nil, err
	}
	served := map[int][]finding{}
	var rttMS, reqKB, rejected float64
	logs, _, err := b.driveRequests(d, plan, br, func(op servedOp) {
		rttMS += ms(op.rtt)
		reqKB += float64(op.reqBytes) / 1024
		if op.status == http.StatusTooManyRequests {
			rejected++
		}
		if op.ok {
			served[op.index] = op.findings
		}
	})
	if err != nil {
		return nil, err
	}
	after, err := d.metrics()
	if err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	n := float64(len(logs.lat))
	rttMS /= n
	queue := 1000 * delta("sqlcheckd_job_queue_wait_seconds_sum") / n
	runMS := 1000 * delta("sqlcheckd_job_run_seconds_sum") / n
	extra := map[string]float64{"server.wire_ms": rttMS - queue - runMS, "server.queue_ms": queue,
		"server.run_ms": runMS, "server.req_kb": reqKB / n, "server.rejected": rejected}
	d.stop()
	d = nil

	// Two replicas replay the same requests: one untraced (for the tracing
	// overhead), one traced. Each is primed as the daemon was.
	var reps [2]*replica
	for k, name := range []string{"replay-plain", "replay"} {
		rp, err := newReplica(storeDir(filepath.Join(b.work, "stores", name)))
		if err != nil {
			return nil, err
		}
		for ai := range b.apps {
			a := br.get(ai, plan.Initial[ai])
			if _, _, err := rp.request(nil, nil, ai, a, a.Sources); err != nil {
				return nil, err
			}
		}
		reps[k] = rp
	}
	tl, l := newTimeline(true), newLedger()
	var t tally
	for i, req := range plan.Requests {
		a := br.get(req.App, req.Branch)
		sources := req.Edit.apply(a.Sources)
		_, dp, err := reps[0].request(nil, nil, req.App, a, sources)
		if err != nil {
			return nil, err
		}
		reps[0].ms += ms(dp)
		got, dt, err := reps[1].request(tl, l, req.App, a, sources)
		reps[1].ms += ms(dt)
		if err == nil {
			err = checkCensus(a, got, req.Edit.probe())
		}
		if want, ok := served[i]; ok && err == nil && !sameFindings(got, want) {
			err = fmt.Errorf("%s: replay findings differ from the daemon's response", a.Slug)
		}
		t.record(err)
	}
	n = float64(l.ops)
	extra["trace.overhead_pct"] = 100 * (reps[1].ms/reps[0].ms - 1)
	extra["outside.ms"] = rttMS - reps[0].ms/n
	return b.layerResult(l, t, extra)
}

// guardTraced replays the pack pass in-process (compile and load per app,
// reported as set-up rows), then the match loop: half the timed run's
// batches untraced, half with an interval per page execution, for the
// tracing overhead.
func (b *bench) guardTraced() (*result, error) {
	ops, err := makeGuardStream(b.seed, b.apps)
	if err != nil {
		return nil, err
	}
	if err := b.writeApps(); err != nil {
		return nil, err
	}
	set := newTimeline(true)
	setL := newLedger()
	set.begin()
	var paths []string
	var states, packKB float64
	for _, a := range b.apps {
		store, err := vcache.Open(storeDir(b.storeHome(a, "warm")))
		if err != nil {
			return nil, err
		}
		_, res, err := analyzeApp(a.Sources, a.Entries, store)
		if err != nil {
			return nil, err
		}
		var data []byte
		var st core.PackStats
		set.call("enforce.compile", func() { data, st, err = buildPack(res) })
		if err != nil {
			return nil, err
		}
		states += float64(st.States)
		packKB += float64(st.PackBytes) / 1024
		path := b.packPath(a)
		if err := writeFile(path, string(data)); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	var gs *guardSet
	set.call("enforce.load", func() { gs, err = openGuards(paths) })
	if err != nil {
		return nil, err
	}
	defer gs.close()
	set.end(setL)
	extra := map[string]float64{
		"enforce.compile_ms":       float64(setL.ns["enforce.compile"]) / 1e6,
		"enforce.compile_alloc_mb": setL.allocB["enforce.compile"] / (1 << 20),
		"enforce.states":           states,
		"enforce.pack_kb":          packKB,
		"enforce.load_ms":          float64(setL.ns["enforce.load"]) / 1e6,
	}

	sql := streamBytes(ops)
	batches := b.rounds() / 2
	plainMS := 0.0
	for i := 0; i < batches; i++ {
		plainMS += gs.timeBatch(ops, sql, wallClock).MS
	}

	// Matching allocates nothing, so the traced loop skips allocation
	// samples, which would cost more than a check.
	tl, l := newTimeline(false), newLedger()
	var t tally
	var queries, blocked int
	var tracedMS float64
	for l.ops < batches {
		tl.begin()
		q, nb, err := gs.checkBatch(ops, sql, tl)
		tracedMS += ms(tl.end(l))
		queries += q
		blocked += nb
		t.record(err)
	}
	extra["enforce.match_ns"] = float64(l.ns["enforce.match"]) / float64(queries)
	extra["enforce.block_pct"] = 100 * float64(blocked) / float64(queries)
	extra["trace.overhead_pct"] = 100 * (tracedMS/plainMS - 1)
	return b.layerResult(l, t, extra)
}
