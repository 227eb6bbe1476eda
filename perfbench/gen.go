package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// appInput is one corpus app as the benchmark feeds it to the system, plus
// the ground truth its outputs are checked against. The census comes from
// the corpus plant (corpus.Expectation / FalseFiles), not from the analyzer.
type appInput struct {
	Slug       string
	Sources    map[string]string
	Entries    []string
	Shared     string // the include every page loads
	Expect     expectation
	FalseFiles map[string]bool
}

// loadApps returns the five Table 1 subjects in the paper's order.
func loadApps() []*appInput {
	var out []*appInput
	for _, a := range corpusApps() {
		slug := strings.ToLower(strings.Join(strings.Fields(a.Name), "-"))
		out = append(out, &appInput{Slug: slug, Sources: a.Sources, Entries: a.Entries,
			Shared: "common.php", Expect: a.Expect, FalseFiles: a.FalseFiles})
	}
	return out
}

// gen is the one seeded input generator behind every workload. Each
// workload draws from its own stream, so adding draws to one workload never
// shifts another's inputs.
//
// The seed may change names, tokens, pages and order, never the amount of
// work: every token has a fixed length and a fixed character class, and
// every count (edits per kind, requests per class, queries per batch) is
// fixed by the workload's shape. TestWorkCensusIsSeedInvariant holds the
// generators to this.
type gen struct {
	rng  *rand.Rand
	used map[string]bool // tokens returned so far
}

func newGen(seed int64, stream string) *gen {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &gen{rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64()&(1<<62-1)))), used: map[string]bool{}}
}

// letters returns n seeded lowercase letters. Letters only, so no
// character-class test in a page (is_numeric, ctype_alpha, a regex) can
// answer differently for different seeds.
func (g *gen) letters(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + g.rng.Intn(26))
	}
	return string(b)
}

// digits returns n seeded decimal digits, the first one nonzero.
func (g *gen) digits(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + g.rng.Intn(10))
	}
	b[0] = byte('1' + g.rng.Intn(9))
	return string(b)
}

// tokenLetters are the letters of every token.
const tokenLetters = "cdfhjkmq"

// token returns a seeded name the generator has not returned before: a
// permutation of tokenLetters. Names that reach the analyzer (table and
// parameter names, branch suffixes) shape its automata — the byte classes
// follow the letters a grammar uses — so every token uses the same
// letters, once each.
func (g *gen) token() string {
	for {
		b := []byte(tokenLetters)
		g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if t := string(b); !g.used[t] {
			g.used[t] = true
			return t
		}
	}
}

// edit is one seeded change to an app, applied to the pristine file (so
// successive edits replace each other and the app does not grow).
type edit struct {
	Kind string `json:"kind"` // comment | probe | shared
	File string `json:"file"`
	Text string `json:"text"` // appended to the pristine file
	// Line is where a probe's query lands: it must come back as exactly
	// one new direct finding there.
	Line int `json:"line,omitempty"`
}

// apply returns sources with the edit applied, sharing every unedited file.
func (e edit) apply(sources map[string]string) map[string]string {
	out := make(map[string]string, len(sources))
	for k, v := range sources {
		out[k] = v
	}
	out[e.File] = sources[e.File] + e.Text
	return out
}

// probe returns the edit's probe, or nil.
func (e *edit) probe() *edit {
	if e == nil || e.Kind != "probe" {
		return nil
	}
	return e
}

// inHTML reports whether a PHP file ends outside a <?php block, so appended
// text is inline HTML rather than code.
func inHTML(src string) bool {
	return strings.LastIndex(src, "?>") > strings.LastIndex(src, "<?php")
}

// editKinds is the cycle each app's scan edits follow (see editSlots): the
// incremental differential's edit kinds. A run makes whole cycles per app,
// so every app gets the same number of edits of each kind whatever the
// seed. A probe adds one cold check to a scan; comment and shared-include
// edits change no verdict-cache key. Seven of ten edits are of the latter
// kinds, so an app's median scan lies among them, not on the edge between
// them and the probes.
var editKinds = []string{"shared", "probe", "comment", "comment", "probe", "comment", "comment", "probe", "comment", "comment"}

// serveKinds is serve-dev's cycle per app: two requests in ten switch the
// app to a never-seen branch (and carry a comment edit), the others carry
// an edit of the given kind. A switch is a cold analysis, the costliest
// request; at two in ten, Tiger's and Utopia's switches fill the top 5%
// of a run's requests, so the tail sits inside one app's switches rather
// than where several apps' switches and shared-include edits meet.
var serveKinds = []string{"switch", "shared", "probe", "comment", "probe", "comment", "switch", "probe", "comment", "comment"}

// editSlot is one planned edit: its kind (a slot of the kind cycle) and
// the file it goes to.
type editSlot struct{ kind, file string }

// editSlots plans app a's n edits over a run. Kinds follow cycle; the
// pages of each kind are the size strata of a's entry pages, one stratum
// per edit of that kind, visited in a fixed order that mixes small and
// large pages. So the set of edited pages, and which edit follows which, is
// the same whatever the seed; the seed only rotates the sequence (rotate)
// and fills in tokens. An incremental request re-analyzes the page it edits
// and the page the previous edit restores, so the pairs matter too.
func editSlots(a *appInput, cycle []string, n, rotate int) []editSlot {
	pages := slices.Clone(a.Entries)
	sort.SliceStable(pages, func(i, j int) bool { return len(a.Sources[pages[i]]) < len(a.Sources[pages[j]]) })
	count := map[string]int{}
	for i := 0; i < n; i++ {
		count[cycle[i%len(cycle)]]++
	}
	seen := map[string]int{}
	out := make([]editSlot, n)
	for i := range out {
		k := cycle[i%len(cycle)]
		file := a.Shared
		if k != "shared" {
			stratum := mixedOrder(count[k])[seen[k]]
			file = pages[(2*stratum+1)*len(pages)/(2*count[k])]
		}
		seen[k]++
		out[i] = editSlot{k, file}
	}
	return append(out[rotate%n:], out[:rotate%n]...)
}

// mixedOrder is 0..n-1 ordered by the fractional part of (i+1)·φ, a fixed
// order in which any run of consecutive entries spreads over the range.
func mixedOrder(n int) []int {
	const phi = 0.6180339887498949
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	frac := func(i int) float64 { x := float64(i+1) * phi; return x - float64(int(x)) }
	sort.Slice(order, func(x, y int) bool { return frac(order[x]) < frac(order[y]) })
	return order
}

// edit draws an edit of the given kind to file: a comment-only edit to an
// entry page, a taint probe that adds exactly one direct finding at a
// known line, or a comment edit to the shared include, which dirties every
// page. Each kind's text has a fixed length on a given file.
func (g *gen) edit(a *appInput, kind, file string) edit {
	if kind == "shared" {
		text := "// shared edit " + g.token() + "\n"
		if inHTML(a.Sources[file]) {
			text = "<!-- shared edit " + g.token() + " -->\n"
		}
		return edit{Kind: "shared", File: file, Text: text}
	}
	// The text always starts on a new line of its own, so its length does
	// not depend on whether the page ends with a newline.
	if kind == "comment" {
		return edit{Kind: "comment", File: file, Text: "\n<!-- edit " + g.token() + " -->\n"}
	}
	param, table := "p"+g.token(), "probe_"+g.token()
	text := fmt.Sprintf("\n<?php\n$bench_probe = $_GET['%s'];\nmysql_query(\"SELECT * FROM %s WHERE name='$bench_probe'\");\n?>\n", param, table)
	return edit{Kind: "probe", File: file, Text: text, Line: strings.Count(a.Sources[file], "\n") + 4}
}

// tableRef matches the table identifier after a SQL keyword inside the
// corpus's query literals.
var tableRef = regexp.MustCompile(`\b(FROM|INTO|UPDATE|JOIN)\s+([A-Za-z_][A-Za-z0-9_]*)`)

// variant returns app a on a branch: every SQL table identifier renamed
// with suffix. Line structure and findings census are unchanged; the query
// grammars, and so every verdict-cache key, are new.
func variant(a *appInput, suffix string) *appInput {
	v := *a
	v.Sources = make(map[string]string, len(a.Sources))
	for path, src := range a.Sources {
		v.Sources[path] = tableRef.ReplaceAllString(src, "${1} ${2}_"+suffix)
	}
	return &v
}

// scanPlan is the audit-cold and rescan-warm input: per pass, the app order
// and (rescan) one edit per app.
type scanPlan struct {
	Order [][]int  `json:"order"`
	Edits [][]edit `json:"edits,omitempty"`
}

// makeScanPlan draws passes over the apps in a seeded order per pass. With
// edits, passes must be a whole number of edit cycles.
func makeScanPlan(seed int64, workload string, apps []*appInput, passes int, withEdits bool) scanPlan {
	g := newGen(seed, workload)
	slots := make([][]editSlot, len(apps))
	for i, a := range apps {
		slots[i] = editSlots(a, editKinds, passes, g.rng.Intn(passes))
	}
	var p scanPlan
	for i := 0; i < passes; i++ {
		order := g.rng.Perm(len(apps))
		p.Order = append(p.Order, order)
		if withEdits {
			row := make([]edit, len(apps))
			for _, ai := range order {
				row[ai] = g.edit(apps[ai], slots[ai][i].kind, slots[ai][i].file)
			}
			p.Edits = append(p.Edits, row)
		}
	}
	return p
}

// serveRequest is one request of a serve-dev tenant: the app, the branch it
// is on, whether the request switches to that branch, and the edit it
// carries.
type serveRequest struct {
	Tenant int    `json:"tenant"`
	App    int    `json:"app"`
	Branch string `json:"branch"`
	Switch bool   `json:"switch,omitempty"`
	Edit   edit   `json:"edit"`
}

// class is the op class the request's time is reported under.
func (r serveRequest) class() string {
	if r.Switch {
		return "switch"
	}
	return r.Edit.Kind
}

// servePlan is serve-dev's input. Each of two tenants owns a disjoint half
// of the corpus and visits its apps round robin, in a seeded order per
// round; every app is visited the same number of times, a whole number of
// serveKinds cycles. Every app starts on a seeded branch (set-up primes its
// session there), so a request's size does not depend on whether a switch
// has happened yet. Requests is the order they are sent in, one at a time.
type servePlan struct {
	Tenants  [2][]int       `json:"tenants"`
	Initial  []string       `json:"initial"` // by app index
	Requests []serveRequest `json:"requests"`
}

// tenantApps is the fixed split of the corpus (indices in Table 1 order:
// e107, EVE, Tiger, Utopia, Warp). It is not drawn from the seed: which
// apps share a tenant sets the request mix. The first tenant carries the
// large bodies (e107, Warp), the second the check-heavy branch switches
// (Tiger, Utopia).
var tenantApps = [2][]int{{0, 1, 4}, {2, 3}}

// branchSuffix is a seeded branch name of fixed length.
func (g *gen) branchSuffix() string { return "b" + g.token() }

func makeServePlan(seed int64, apps []*appInput, cycles int) servePlan {
	g := newGen(seed, "serve-dev")
	p := servePlan{Tenants: tenantApps, Initial: make([]string, len(apps))}
	var streams [2][]serveRequest
	for t, owned := range p.Tenants {
		n := cycles * len(serveKinds)
		slots := map[int][]editSlot{}
		branch := map[int]string{}
		for _, ai := range owned {
			slots[ai] = editSlots(apps[ai], serveKinds, n, g.rng.Intn(n))
			branch[ai] = g.branchSuffix()
			p.Initial[ai] = branch[ai]
		}
		for r := 0; r < n; r++ {
			for _, k := range g.rng.Perm(len(owned)) {
				ai := owned[k]
				slot := slots[ai][r]
				kind := slot.kind
				req := serveRequest{Tenant: t, App: ai}
				if kind == "switch" {
					branch[ai] = g.branchSuffix()
					req.Switch = true
					kind = "comment"
				}
				req.Branch, req.Edit = branch[ai], g.edit(apps[ai], kind, slot.file)
				streams[t] = append(streams[t], req)
			}
		}
	}
	// Merge the two streams evenly, in a fixed pattern: the tenant whose
	// next request is due earliest (as a share of its stream) goes next.
	var sent [2]int
	for sent[0]+sent[1] < len(streams[0])+len(streams[1]) {
		t := 0
		due := func(t int) float64 { return (float64(sent[t]) + 0.5) / float64(len(streams[t])) }
		if sent[0] == len(streams[0]) || (sent[1] < len(streams[1]) && due(1) < due(0)) {
			t = 1
		}
		p.Requests = append(p.Requests, streams[t][sent[t]])
		sent[t]++
	}
	return p
}

// guardQuery is one query a guarded page execution issues, keyed by the
// hotspot ("file:line") that issued it. Block is the expected decision.
type guardQuery struct {
	Key   string `json:"key"`
	SQL   string `json:"sql"`
	Block bool   `json:"block,omitempty"`
}

// guardExec is the query set of one page execution (or one attack).
type guardExec struct {
	App     int          `json:"app"`
	Queries []guardQuery `json:"queries"`
}

// guardInput is one concrete request to a page: the value every input key
// reads as, and the value every fetched database row holds.
type guardInput struct{ in, db string }

// guardInputs are the requests every page is executed under, benign and
// adversarial. Each has a fixed length and a fixed character class; the
// seed fills in letters and digits.
func (g *gen) guardInputs() []guardInput {
	benignDB := "stored" + g.letters(4)
	evilDB := "sto'red; DROP TABLE " + g.letters(4) + "; --"
	d := g.digits(3)
	s, q := g.letters(3), g.letters(3)
	return []guardInput{
		{g.digits(5), benignDB},
		{"user" + g.token(), benignDB},
		{"1'; DROP TABLE " + g.letters(6) + "; --", evilDB},
		{"0 OR " + d + "=" + d, evilDB},
		{"' OR '" + s + "'='" + s, benignDB},
		{"x\" OR \"" + q + "\"=\"" + q, benignDB},
		{"1 UNION SELECT password FROM " + g.letters(6), evilDB},
	}
}

// probeInputs and probeDBValue classify sites: the first breaks out of a
// quoted literal and passes an unanchored digit check, the second breaks
// out of a numeric context; the stored value reaches every indirect flow.
// They are fixed, so which sites are verified does not depend on the seed.
var (
	probeInputs  = []string{"1'; DROP TABLE unp_user; --", "0 OR 1=1"}
	probeDBValue = "sto'red; DROP TABLE x; --"
)

// attackPayload returns the seeded attack payloads, in the fixed order they
// are tried at a site: the first one sqlgram's confinement oracle finds
// unconfined replaces the site's tainted span, which makes the mutated
// query one the application cannot emit.
func (g *gen) attackPayloads() []string {
	s, d := g.letters(2), g.digits(2)
	return []string{
		"' OR '" + s + "'='" + s,
		"1 OR " + d + "=" + d,
		"'; DROP TABLE " + g.letters(5) + "; --",
		"1 UNION SELECT password FROM " + g.letters(5),
	}
}

// makeGuardStream runs every corpus page concretely under the seeded
// requests of guardInputs and keeps each execution's queries (all must be
// allowed), then adds one seeded attack at every verified site (it must be
// blocked). A site is verified when no execution, under the probe inputs
// or any other, renders an unconfined span there and its file is not a
// planted false positive: ground truth from execution and the corpus plant,
// not from the analyzer. The stream is shuffled by the seed.
func makeGuardStream(seed int64, apps []*appInput) ([]guardExec, error) {
	g := newGen(seed, "guard")
	var ops []guardExec
	for ai, a := range apps {
		r := newMapResolver(a.Sources)
		sites := map[string]*guardSite{}
		var keys []string
		run := func(entry string, in guardInput) ([]queryEvent, error) {
			evs, err := runPageWith(r, entry, interpOptions{DefaultInput: &in.in, DBValue: in.db})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.Slug, entry, err)
			}
			for i := range evs {
				ev := &evs[i]
				key := fmt.Sprintf("%s:%d", ev.File, ev.Line)
				s := sites[key]
				if s == nil {
					s = &guardSite{file: ev.File}
					sites[key] = s
					keys = append(keys, key)
				}
				spans := ev.TaintSpans()
				for _, sp := range spans {
					if !confined(ev.SQL, sp[0], sp[1]) {
						s.unsafe = true
					}
				}
				if s.sample == nil && len(spans) > 0 {
					s.sample = ev
				}
			}
			return evs, nil
		}
		for _, entry := range a.Entries {
			for _, in := range probeInputs {
				if _, err := run(entry, guardInput{in, probeDBValue}); err != nil {
					return nil, err
				}
			}
			for _, in := range g.guardInputs() {
				evs, err := run(entry, in)
				if err != nil {
					return nil, err
				}
				if len(evs) == 0 {
					continue
				}
				op := guardExec{App: ai}
				for _, ev := range evs {
					op.Queries = append(op.Queries, guardQuery{Key: fmt.Sprintf("%s:%d", ev.File, ev.Line), SQL: ev.SQL})
				}
				ops = append(ops, op)
			}
		}
		for _, key := range keys {
			s := sites[key]
			if s.unsafe || s.sample == nil || a.FalseFiles[s.file] {
				continue
			}
			span := s.sample.TaintSpans()[0]
			for _, payload := range g.attackPayloads() {
				mutated := s.sample.SQL[:span[0]] + payload + s.sample.SQL[span[1]:]
				if !confined(mutated, span[0], span[0]+len(payload)) {
					ops = append(ops, guardExec{App: ai, Queries: []guardQuery{{Key: key, SQL: mutated, Block: true}}})
					break
				}
			}
		}
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// guardSite is what the concrete executions showed about one query site.
type guardSite struct {
	file   string
	sample *queryEvent // first execution with a tainted span
	unsafe bool        // some execution rendered an unconfined span
}
