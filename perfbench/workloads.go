package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The run's work tree holds one copy of the apps, and one directory per
// store: an op that needs an empty store gets a new directory rather than
// an emptied one.
func (b *bench) appDir(a *appInput) string { return filepath.Join(b.work, "apps", a.Slug) }
func (b *bench) storeHome(a *appInput, name string) string {
	return filepath.Join(b.work, "stores", a.Slug, name)
}

// writeApps writes every app into the work tree. It is input generation,
// not set-up: no system under test runs.
func (b *bench) writeApps() error {
	for _, a := range b.apps {
		if err := writeApp(b.appDir(a), a.Sources); err != nil {
			return err
		}
	}
	return nil
}

// scan runs one fresh sqlcheck -parallel 1 process over app a, with its
// stores under home, and judges its output. A scan's time is the child's
// user-mode CPU time. Its kernel time is printed on stderr but left out:
// on the shared reference host it is mostly ext4 calls (reading sources,
// writing store entries), whose CPU cost followed other tenants' disk
// traffic — a fixed create/rename/read probe of 40 small files took
// 4-27 ms in 10-scan blocks minutes apart, and an e107 scan's kernel time
// 29-129 ms with it (correlation 0.79), while its user time stayed within
// 177-191 ms.
func (b *bench) scan(a *appInput, home string, probe *edit, extra ...string) (procResult, []finding, error) {
	r, err := runProc(childEnv(home), filepath.Join(b.bin, "sqlcheck"), sqlcheckArgs(a, b.appDir(a), extra...)...)
	if err != nil {
		return r, nil, err
	}
	fs, err := checkScan(a, r.exitCode, r.stdout, probe)
	return r, fs, err
}

// fillHome is the store repetition rep of the scan set-up fills.
func (b *bench) fillHome(a *appInput, rep int) string {
	return b.storeHome(a, fmt.Sprintf("fill%d", rep))
}

// scanSetup is the scan workloads' set-up: unit i is app i's store fill,
// one cold scan into an empty store. The last repetition's stores are the
// ones rescan-warm's ops run against.
func (b *bench) scanSetup() setupPlan {
	return setupPlan{units: len(b.apps), unit: func(rep, i int) (time.Duration, error) {
		r, _, err := b.scan(b.apps[i], b.fillHome(b.apps[i], rep), nil)
		return r.user, err
	}}
}

// scanPasses runs the plan's passes of fresh scans. prepare readies app ai
// for pass p and returns the stores directory and the probe its scan must
// report. Peak RSS is the median over passes of each pass's largest scan.
func (b *bench) scanPasses(plan scanPlan, setup setupTimes, prepare func(p, ai int) (string, *edit, error)) (*result, error) {
	var l opLog
	var passRSS []float64
	perApp, perAppSys := make([][]float64, len(b.apps)), make([][]float64, len(b.apps))
	start := time.Now()
	for p := range plan.Order {
		peak := 0.0
		for _, ai := range plan.Order[p] {
			home, probe, err := prepare(p, ai)
			if err != nil {
				return nil, err
			}
			if err := b.opSpeed.sample(); err != nil {
				return nil, err
			}
			r, _, err := b.scan(b.apps[ai], home, probe)
			l.add(ms(r.user), b.apps[ai].Slug, err)
			perApp[ai] = append(perApp[ai], ms(r.user))
			perAppSys[ai] = append(perAppSys[ai], ms(r.sys))
			peak = math.Max(peak, float64(r.maxRSSKB)/1024)
		}
		passRSS = append(passRSS, peak)
	}
	for ai, lat := range perApp {
		fmt.Fprintf(os.Stderr, "perfbench: %-22s median scan %.1f ms CPU (%.1f ms system) over %d\n",
			b.apps[ai].Slug, percentile(lat, 50), percentile(perAppSys[ai], 50), len(lat))
	}
	return b.endToEnd(&l, time.Since(start), setup, percentile(passRSS, 50)), nil
}

// auditCold: one op is one cold scan of one app by a fresh process on an
// empty store — the paper's own use, a first audit. Op classes are the
// apps.
func (b *bench) auditCold() (*result, error) {
	plan := makeScanPlan(b.seed, b.workload, b.apps, b.rounds(), false)
	if err := b.writeApps(); err != nil {
		return nil, err
	}
	setup, err := b.measureSetup(b.scanSetup())
	if err != nil {
		return nil, err
	}
	return b.scanPasses(plan, setup, func(p, ai int) (string, *edit, error) {
		return b.storeHome(b.apps[ai], fmt.Sprintf("op%d", p)), nil, nil
	})
}

// rescanWarm: one op is one fresh scan of one app after a seeded edit,
// against the stores set-up filled — the CI re-scan after a small commit.
// Op classes are the apps.
func (b *bench) rescanWarm() (*result, error) {
	plan := makeScanPlan(b.seed, b.workload, b.apps, b.rounds()*len(editKinds), true)
	if err := b.writeApps(); err != nil {
		return nil, err
	}
	setup, err := b.measureSetup(b.scanSetup())
	if err != nil {
		return nil, err
	}
	edited := map[int]string{}
	return b.scanPasses(plan, setup, func(p, ai int) (string, *edit, error) {
		a, e := b.apps[ai], plan.Edits[p][ai]
		if err := b.applyEdit(a, edited[ai], e); err != nil {
			return "", nil, err
		}
		edited[ai] = e.File
		return b.fillHome(a, b.spec.setupReps), e.probe(), nil
	})
}

// applyEdit restores the previously edited file of app a and writes edit e
// over the pristine file it targets.
func (b *bench) applyEdit(a *appInput, prev string, e edit) error {
	if prev != "" && prev != e.File {
		if err := writeFile(filepath.Join(b.appDir(a), filepath.FromSlash(prev)), a.Sources[prev]); err != nil {
			return err
		}
	}
	return writeFile(filepath.Join(b.appDir(a), filepath.FromSlash(e.File)), a.Sources[e.File]+e.Text)
}

// wireRequest is the body of POST /v1/analyze.
type wireRequest struct {
	Sources map[string]string `json:"sources"`
	Entries []string          `json:"entries"`
	Options struct {
		Incremental bool `json:"incremental"`
	} `json:"options"`
}

func requestBody(a *appInput, sources map[string]string) ([]byte, error) {
	var w wireRequest
	w.Sources, w.Entries = sources, a.Entries
	w.Options.Incremental = true
	return json.Marshal(w)
}

func tenantName(t int) string { return fmt.Sprintf("tenant%d", t) }

// branches caches the apps on each branch a serve-dev run visits.
type branches struct {
	apps []*appInput
	by   map[string]*appInput
}

func (br *branches) get(ai int, suffix string) *appInput {
	key := fmt.Sprint(ai, "/", suffix)
	if v := br.by[key]; v != nil {
		return v
	}
	if br.by == nil {
		br.by = map[string]*appInput{}
	}
	v := variant(br.apps[ai], suffix)
	br.by[key] = v
	return v
}

// owner is the tenant that owns app ai.
func (p servePlan) owner(ai int) int {
	for t, apps := range p.Tenants {
		for _, x := range apps {
			if x == ai {
				return t
			}
		}
	}
	return 0
}

// serveSetup is serve-dev's set-up: unit i is app i's prime, its owner's
// first request, which analyzes the app cold on its initial branch and
// leaves a warm resident session. The warm-up repetition primes every app
// in one daemon on an empty store, *d, which then serves the ops; the
// caller stops it. Each timed unit starts a daemon of its own on an empty
// store, primes its app and stops the daemon. The unit's time is that
// daemon's user-mode CPU time, read once it has exited. Kernel time is
// left out, as for a scan: on the reference host an e107 prime's kernel
// time (verdict-store writes, page faults) read 30-50 ms in one run and
// 110-120 ms in another minutes later, while its user time stayed within
// 190-230 ms.
func (b *bench) serveSetup(plan servePlan, br *branches, d **daemon) setupPlan {
	prime := func(d *daemon, ai int) error {
		a := br.get(ai, plan.Initial[ai])
		body, err := requestBody(a, a.Sources)
		if err != nil {
			return err
		}
		status, resp, _, err := d.analyze(tenantName(plan.owner(ai)), body)
		if err == nil {
			_, err = checkResponse(a, status, resp, nil)
		}
		if err != nil {
			return fmt.Errorf("prime %s: %w", a.Slug, err)
		}
		return nil
	}
	return setupPlan{
		units: len(b.apps),
		begin: func(rep int) error {
			if rep > 0 {
				return nil
			}
			var err error
			*d, err = startDaemon(b.bin, filepath.Join(b.work, "stores", "daemon"))
			return err
		},
		unit: func(rep, ai int) (time.Duration, error) {
			if rep == 0 {
				return 0, prime(*d, ai)
			}
			u, err := startDaemon(b.bin, filepath.Join(b.work, "stores", fmt.Sprintf("prime%d-%d", rep, ai)))
			if err != nil {
				return 0, err
			}
			err = prime(u, ai)
			u.stop()
			return u.userCPU(), err
		},
	}
}

// serveDev: a sqlcheckd child serving two tenants, each owning a disjoint
// half of the corpus and posting incremental requests that carry the next
// edit; two requests in ten switch their app to a never-seen branch. Op
// classes are the request kinds.
func (b *bench) serveDev() (*result, error) {
	plan := makeServePlan(b.seed, b.apps, b.rounds())
	br := &branches{apps: b.apps}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setup, err := b.measureSetup(b.serveSetup(plan, br, &d))
	if err != nil {
		return nil, err
	}
	logs, elapsed, err := b.driveRequests(d, plan, br, nil)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	return b.endToEnd(logs, elapsed, setup, rss), nil
}

// servedOp is one finished request, kept by the traced run.
type servedOp struct {
	index    int
	findings []finding
	rtt      time.Duration
	reqBytes int
	status   int
	ok       bool
}

// driveRequests sends the plan's requests one at a time and logs each
// request's daemon CPU time. One request in flight is what lets the
// daemon's CPU time be charged to the request that caused it. When record
// is non-nil every finished request is handed to it.
func (b *bench) driveRequests(d *daemon, plan servePlan, br *branches, record func(servedOp)) (*opLog, time.Duration, error) {
	var l opLog
	start := time.Now()
	for i, req := range plan.Requests {
		a := br.get(req.App, req.Branch)
		body, err := requestBody(a, req.Edit.apply(a.Sources))
		if err != nil {
			return nil, 0, err
		}
		if err := b.opSpeed.sample(); err != nil {
			return nil, 0, err
		}
		cpu, status, resp, rtt, err := d.analyzeCPU(tenantName(req.Tenant), body)
		var fs []finding
		if err == nil {
			fs, err = checkResponse(a, status, resp, req.Edit.probe())
		}
		l.add(ms(cpu), req.class(), err)
		if record != nil {
			record(servedOp{index: i, findings: fs, rtt: rtt, reqBytes: len(body), status: status, ok: err == nil})
		}
	}
	return &l, time.Since(start), nil
}

// guardFiles is what the guard set-up leaves for the match loop.
type guardFiles struct {
	Packs []string    `json:"packs"` // by app index
	Execs []guardExec `json:"execs"`
}

func (b *bench) packPath(a *appInput) string {
	return filepath.Join(b.work, "packs", a.Slug+".pack")
}

// guardSetup is the pack pass: unit i is app i's pack build (sqlcheck
// -emit-pack against its warm store). The warm-up fills every app's store
// and builds no pack: a build is the same binary reading the same files,
// and five more would add about 5 s to a run. The last repetition's packs
// are the ones the match loop loads.
func (b *bench) guardSetup() setupPlan {
	return setupPlan{
		units: len(b.apps),
		begin: func(rep int) error {
			if rep > 0 {
				return nil
			}
			for _, a := range b.apps {
				if _, _, err := b.scan(a, b.storeHome(a, "warm"), nil); err != nil {
					return err
				}
			}
			return nil
		},
		unit: func(rep, i int) (time.Duration, error) {
			if rep == 0 {
				return 0, nil
			}
			a := b.apps[i]
			r, _, err := b.scan(a, b.storeHome(a, "warm"), nil, "-emit-pack", b.packPath(a))
			if err != nil {
				return 0, fmt.Errorf("pack pass: %w", err)
			}
			return r.user, nil
		},
	}
}

// guard: the pack pass is the set-up; one op is one batch, guardBatchPasses
// passes of the query stream, through the Guards of a separate process
// that loads the packs through the public sqlciv/enforce library. The
// speed probe is sampled before every batch, as before every op of the
// other workloads.
func (b *bench) guard() (*result, error) {
	execs, err := makeGuardStream(b.seed, b.apps)
	if err != nil {
		return nil, err
	}
	if err := b.writeApps(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(b.work, "packs"), 0o755); err != nil {
		return nil, err
	}
	setup, err := b.measureSetup(b.guardSetup())
	if err != nil {
		return nil, err
	}
	files := guardFiles{Execs: execs}
	for _, a := range b.apps {
		files.Packs = append(files.Packs, b.packPath(a))
	}
	data, err := json.Marshal(files)
	if err != nil {
		return nil, err
	}
	stream := filepath.Join(b.work, "stream.json")
	if err := os.WriteFile(stream, data, 0o644); err != nil {
		return nil, err
	}
	child, err := startLineChild("-guard-child", stream)
	if err != nil {
		return nil, err
	}
	defer child.stop()
	batch := func() (guardBatch, error) {
		var g guardBatch
		line, err := child.ask()
		if err == nil {
			err = json.Unmarshal([]byte(line), &g)
		}
		return g, err
	}
	warm, err := batch()
	if err != nil {
		return nil, fmt.Errorf("guard child: %w", err)
	}
	b.opSpeed.power = guardProbePower
	var l opLog
	start := time.Now()
	for i := 0; i < b.rounds(); i++ {
		if err := b.opSpeed.sample(); err != nil {
			return nil, err
		}
		g, err := batch()
		if err != nil {
			return nil, fmt.Errorf("guard child: %w", err)
		}
		l.add(g.MS, "batch", g.err())
	}
	fmt.Fprintf(os.Stderr, "perfbench: guard: %d queries per batch, %d blocked\n", warm.Queries, warm.Blocked)
	return b.endToEnd(&l, time.Since(start), setup, warm.RSSMB), nil
}
