package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// censusSeeds are the seeds the generator self-tests compare.
var censusSeeds = []int64{1, 2, 101, 7777}

// workCensus counts the work a workload's inputs ask for, in the terms
// that set an op's cost; everything else about the inputs (names, tokens,
// pages, order) may change with the seed.
func workCensus(t *testing.T, seed int64, apps []*appInput) map[string]map[string]int {
	t.Helper()
	c := map[string]map[string]int{"audit-cold": {}, "rescan-warm": {}, "serve-dev": {}, "guard": {}}
	audit := makeScanPlan(seed, "audit-cold", apps, 10, false)
	for _, order := range audit.Order {
		for _, ai := range order {
			c["audit-cold"][apps[ai].Slug+" scans"]++
		}
	}
	rescan := makeScanPlan(seed, "rescan-warm", apps, 2*len(editKinds), true)
	for _, row := range rescan.Edits {
		for ai, e := range row {
			c["rescan-warm"][apps[ai].Slug+" "+e.Kind]++
			c["rescan-warm"][apps[ai].Slug+" "+e.Kind+" bytes"] += len(e.Text)
			c["rescan-warm"][apps[ai].Slug+" "+e.Kind+" to "+e.File]++
		}
	}
	serve := makeServePlan(seed, apps, 2)
	br := &branches{apps: apps}
	for ai := range apps {
		a := br.get(ai, serve.Initial[ai])
		body, err := requestBody(a, a.Sources)
		if err != nil {
			t.Fatal(err)
		}
		c["serve-dev"][apps[ai].Slug+" prime bytes"] += len(body)
	}
	for _, req := range serve.Requests {
		a := br.get(req.App, req.Branch)
		body, err := requestBody(a, req.Edit.apply(a.Sources))
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("tenant%d %s %s", req.Tenant, apps[req.App].Slug, req.class())
		c["serve-dev"][key]++
		c["serve-dev"][key+" bytes"] += len(body)
		c["serve-dev"][key+" to "+req.Edit.File]++
	}
	stream, err := makeGuardStream(seed, apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range stream {
		slug := apps[ex.App].Slug
		c["guard"][slug+" executions"]++
		for _, q := range ex.Queries {
			kind := " queries"
			if q.Block {
				kind = " attacks"
			}
			c["guard"][slug+kind] += guardBatchPasses
			c["guard"][slug+kind+" bytes"] += guardBatchPasses * len(q.SQL)
		}
	}
	return c
}

// TestWorkCensusIsSeedInvariant: a seed may change names, tokens, pages and
// order, never the amount of work. For every workload the census of its
// inputs — scans per app; edits per app and kind, their bytes and the
// files they go to; requests per tenant, app and class, their bytes and
// files; queries, query bytes and expected blocks per guard batch — is
// identical across seeds.
func TestWorkCensusIsSeedInvariant(t *testing.T) {
	apps := loadApps()
	want := workCensus(t, censusSeeds[0], apps)
	for w, c := range want {
		if len(c) == 0 {
			t.Fatalf("%s: empty census", w)
		}
	}
	if want["serve-dev"]["tenant1 tiger-php-news-system switch"] < 2 || want["guard"]["tiger-php-news-system attacks"] == 0 {
		t.Fatalf("census lacks switches or attacks: %v", want)
	}
	for _, seed := range censusSeeds[1:] {
		got := workCensus(t, seed, apps)
		for w := range want {
			if !reflect.DeepEqual(got[w], want[w]) {
				for k, v := range want[w] {
					if got[w][k] != v {
						t.Errorf("%s seed %d: %s = %d, seed %d has %d", w, seed, k, got[w][k], censusSeeds[0], v)
					}
				}
				for k, v := range got[w] {
					if _, ok := want[w][k]; !ok {
						t.Errorf("%s seed %d: %s = %d, absent at seed %d", w, seed, k, v, censusSeeds[0])
					}
				}
			}
		}
	}
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	a, err := describeInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := describeInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
}

func TestDifferentSeedsGiveDifferentInputs(t *testing.T) {
	var docs [2]map[string]json.RawMessage
	for i, seed := range []int64{7, 8} {
		data, err := describeInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for w := range workloads {
		if bytes.Equal(docs[0][w], docs[1][w]) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w)
		}
	}
}

// TestEditsLandOutsidePHP: edits are appended to pages that end in inline
// HTML, so a comment edit is an HTML comment and a probe opens its own
// <?php block.
func TestEditsLandOutsidePHP(t *testing.T) {
	for _, a := range loadApps() {
		for _, e := range a.Entries {
			if !inHTML(a.Sources[e]) {
				t.Errorf("%s: entry page %s ends inside a <?php block", a.Slug, e)
			}
		}
	}
}

// TestVariantsKeepCensus: a branch switch renames every table and must leave
// each app's planted census intact, or serve-dev would count correct
// responses as failures.
func TestVariantsKeepCensus(t *testing.T) {
	g := newGen(11, "variant-test")
	for _, a := range loadApps() {
		v := variant(a, g.branchSuffix())
		renamed := 0
		for path, src := range a.Sources {
			if v.Sources[path] != src {
				renamed++
			}
		}
		if renamed == 0 {
			t.Errorf("%s: variant renamed nothing", a.Slug)
		}
		fs, _, err := analyzeApp(v.Sources, v.Entries, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCensus(v, fs, nil); err != nil {
			t.Error(err)
		}
	}
}

// TestEditsKeepCensus: comment and shared-include edits leave the census
// unchanged, and a taint probe adds exactly one direct finding at its line.
func TestEditsKeepCensus(t *testing.T) {
	g := newGen(5, "edit-test")
	for _, a := range loadApps() {
		for _, slot := range editSlots(a, editKinds, len(editKinds), 0)[:3] {
			e := g.edit(a, slot.kind, slot.file)
			fs, _, err := analyzeApp(e.apply(a.Sources), a.Entries, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCensus(a, fs, e.probe()); err != nil {
				t.Errorf("%s edit to %s: %v", e.Kind, e.File, err)
			}
		}
	}
}

// TestGuardStreamShape: the stream holds executed queries and attacks, and
// every attack site is one the executions saw.
func TestGuardStreamShape(t *testing.T) {
	ops, err := makeGuardStream(3, loadApps())
	if err != nil {
		t.Fatal(err)
	}
	executed, attacks := map[string]bool{}, 0
	for _, op := range ops {
		for _, q := range op.Queries {
			if !q.Block {
				executed[fmt.Sprint(op.App, q.Key)] = true
			}
		}
	}
	for _, op := range ops {
		for _, q := range op.Queries {
			if q.Block {
				attacks++
				if !executed[fmt.Sprint(op.App, q.Key)] {
					t.Errorf("attack at %s, a site no execution reached", q.Key)
				}
			}
		}
	}
	if len(executed) == 0 || attacks == 0 {
		t.Fatalf("stream has %d executed sites and %d attacks", len(executed), attacks)
	}
}

// describeInputs renders every workload's inputs for a seed as bytes: the
// determinism tests compare them across seeds.
func describeInputs(seed int64) ([]byte, error) {
	apps := loadApps()
	stream, err := makeGuardStream(seed, apps)
	if err != nil {
		return nil, err
	}
	doc := map[string]any{
		"audit-cold":  makeScanPlan(seed, "audit-cold", apps, 10, false),
		"rescan-warm": makeScanPlan(seed, "rescan-warm", apps, 20, true),
		"serve-dev":   makeServePlan(seed, apps, 2),
		"guard":       stream,
	}
	return json.Marshal(doc)
}
