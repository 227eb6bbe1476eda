package main

import (
	"math"
	"testing"

	"sqlciv/internal/core"
)

// TestSegmentsChargeInnermost: every instant goes to the innermost interval
// covering it, also where a child begins a little before its parent, and
// the stretches cover the op exactly.
func TestSegmentsChargeInnermost(t *testing.T) {
	ivs := []interval{
		{"core", 10, 90},
		{"analysis", 20, 50},
		{"php", 25, 30},
		{"policy.prepare", 60, 80},
		{"policy.check", 59, 70}, // rounding put it 1 ns before its hotspot
	}
	got := map[string]int64{}
	var last int64
	for _, s := range segments(ivs, 100) {
		if s.start != last {
			t.Fatalf("gap or overlap at %d: %+v", last, s)
		}
		last = s.end
		got[s.layer] += s.end - s.start
	}
	want := map[string]int64{"op": 20, "core": 29, "analysis": 25, "php": 5, "policy.prepare": 10, "policy.check": 11}
	if last != 100 || len(got) != len(want) {
		t.Fatalf("segments %v end at %d", got, last)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %d ns, want %d", k, got[k], v)
		}
	}
}

// TestTracedRunCountsMatchResult: a traced cold run of one app counts the
// pages and hotspots core reports, and its rows add up to the op.
func TestTracedRunCountsMatchResult(t *testing.T) {
	a := appByName(t, "eve-activity-tracker")
	tl, l := newTimeline(true), newLedger()
	tl.begin()
	res, err := tl.analyze(l, a.Sources, a.Entries, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	op := tl.end(l)
	if got := l.counts["analysis.pages"]; got != float64(len(a.Entries)) {
		t.Errorf("analysis.pages %v, want %d", got, len(a.Entries))
	}
	if got := l.counts["policy.prepare.hotspots"]; got != float64(res.HotspotsChecked()) {
		t.Errorf("policy.prepare.hotspots %v, want %d", got, res.HotspotsChecked())
	}
	if got := l.counts["analysis.grammar_r"]; got != float64(res.NumProds) {
		t.Errorf("analysis.grammar_r %v, want %d", got, res.NumProds)
	}
	if l.ns["analysis"] <= 0 || l.ns["php"] <= 0 || l.ns["policy.prepare"] <= 0 {
		t.Errorf("idle layer on a cold run: %v", l.ns)
	}
	sum := 0.0
	for _, m := range perLayerMetrics {
		if m.sum {
			sum += l.rows()[m.name]
		}
	}
	if opMS := ms(op); math.Abs(sum-opMS) > 1e-6*opMS {
		t.Errorf("rows sum to %.6f ms, op is %.6f ms", sum, opMS)
	}
}
