package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// appByName picks one corpus app.
func appByName(t *testing.T, slug string) *appInput {
	t.Helper()
	for _, a := range loadApps() {
		if a.Slug == slug {
			return a
		}
	}
	t.Fatalf("no app %s", slug)
	return nil
}

// goodReport is a correct sqlcheck -json report for app a, built from a
// library run.
func goodReport(t *testing.T, a *appInput) []byte {
	t.Helper()
	fs, _, err := analyzeApp(a.Sources, a.Entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(map[string]any{"findings": fs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeBin writes an executable sqlcheck stand-in that prints stdout and
// exits with code.
func fakeBin(t *testing.T, stdout []byte, code int) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "out.json"), stdout, 0o644); err != nil {
		t.Fatal(err)
	}
	script := "#!/bin/sh\ncat \"$(dirname \"$0\")/out.json\"\nexit " + string(rune('0'+code)) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "sqlcheck"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// slowestMS is the time of a correct op that judge adds after the op
// under test, the slowest of the run.
const slowestMS = 1e6

// judge checks that the log's one op failed exactly when want says so, and
// that a failed op's time reads as the run's slowest.
func judge(t *testing.T, name string, l *opLog, want bool) {
	t.Helper()
	l.add(slowestMS, "other", nil)
	if l.attempted != 2 || (l.failed == 1) != want || l.failed > 1 {
		t.Errorf("%s: attempted %d failed %d (%v), want failed=%v", name, l.attempted, l.failed, l.firstErr, want)
	}
	if got := l.failedAtSlowest(l.lat)[0]; want && got != slowestMS {
		t.Errorf("%s: failed op reads %v ms, want the run's slowest %v ms", name, got, slowestMS)
	}
}

// TestFailuresAreCounted injects each kind of failure into the real
// accounting path — process exit codes, analysis-incomplete findings, wrong
// censuses, missing probes, non-2xx responses (429 included), blocked
// executed queries and allowed attacks — and checks each one is counted as
// a failed op, timed as the run's slowest, while a correct op is not.
func TestFailuresAreCounted(t *testing.T) {
	eve := appByName(t, "eve-activity-tracker")
	good := goodReport(t, eve)
	var rep struct {
		Findings []finding `json:"findings"`
	}
	if err := json.Unmarshal(good, &rep); err != nil {
		t.Fatal(err)
	}
	withFindings := func(fs []finding) []byte {
		data, err := json.Marshal(map[string]any{"findings": fs})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	incomplete := append([]finding{{File: "kills.php", Line: 4, Kind: "unknown", Check: "analysis-incomplete"}}, rep.Findings...)
	probe := &edit{Kind: "probe", File: "index.php", Line: 200}

	scans := []struct {
		name   string
		stdout []byte
		code   int
		probe  *edit
		fail   bool
	}{
		{"correct", good, 1, nil, false},
		{"crash exit", good, 2, nil, true},
		{"garbage output", []byte("not json"), 1, nil, true},
		{"analysis incomplete", withFindings(incomplete), 1, nil, true},
		{"census short", withFindings(rep.Findings[1:]), 1, nil, true},
		{"probe missing", good, 1, probe, true},
	}
	for _, sc := range scans {
		b := &bench{bin: fakeBin(t, sc.stdout, sc.code), work: t.TempDir(), apps: loadApps()}
		var l opLog
		r, _, err := b.scan(eve, b.storeHome(eve, "op0"), sc.probe)
		l.add(ms(r.user), "scan", err)
		judge(t, "scan "+sc.name, &l, sc.fail)
	}

	for _, status := range []int{http.StatusOK, http.StatusTooManyRequests, http.StatusInternalServerError} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			w.Write(good)
		}))
		d := &daemon{base: srv.URL, client: srv.Client()}
		var l opLog
		code, body, rtt, err := d.analyze("tenant0", []byte(`{}`))
		if err == nil {
			_, err = checkResponse(eve, code, body, nil)
		}
		l.add(ms(rtt), "request", err)
		srv.Close()
		judge(t, fmt.Sprint("HTTP ", status), &l, status != http.StatusOK)
	}

	// Guard decisions through real packs: an executed query the guard
	// blocks (here: at a site the pack does not know, which fails closed)
	// and an attack it allows both fail their op.
	_, res, err := analyzeApp(eve.Sources, eve.Entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := buildPack(res)
	if err != nil {
		t.Fatal(err)
	}
	pack := filepath.Join(t.TempDir(), "eve.pack")
	if err := os.WriteFile(pack, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gs, err := openGuards([]string{pack})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.close()
	const legit = "SELECT * FROM eve_activity ORDER BY id DESC LIMIT 20"
	streams := []struct {
		name string
		q    guardQuery
		fail bool
	}{
		{"executed query passes", guardQuery{Key: "index.php:3", SQL: legit}, false},
		{"executed query blocked", guardQuery{Key: "nowhere.php:1", SQL: legit}, true},
		{"attack allowed", guardQuery{Key: "index.php:3", SQL: legit, Block: true}, true},
	}
	for _, st := range streams {
		stream := []guardExec{{Queries: []guardQuery{st.q}}}
		var l opLog
		g := gs.timeBatch(stream, streamBytes(stream), wallClock)
		l.add(g.MS, "batch", g.err())
		judge(t, "guard "+st.name, &l, st.fail)
	}
}

// TestFailedOpsMissTheLatencyLimit: a failed op is placed at the run's
// slowest latency, never at its own (a fast 429 must not improve p50).
func TestFailedOpsMissTheLatencyLimit(t *testing.T) {
	var l opLog
	l.add(10, "a", nil)
	l.add(1, "a", errTest)
	l.add(30, "b", nil)
	lat := l.failedAtSlowest(l.lat)
	if lat[1] != 30 || l.failed != 1 || l.attempted != 3 {
		t.Fatalf("latencies %v, failed %d, attempted %d", lat, l.failed, l.attempted)
	}
}

var errTest = os.ErrInvalid
