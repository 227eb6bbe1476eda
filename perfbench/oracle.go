package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// finding is one reported SQLCIV in the shape shared by sqlcheck -json, the
// daemon wire and the in-process replay.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Kind    string `json:"kind"` // direct | indirect | unknown
	Check   string `json:"check"`
	Witness string `json:"witness"`
	Source  string `json:"source,omitempty"`
}

// checkCensus is the per-op correctness oracle. The findings must reproduce
// the app's planted census (corpus Expectation, with direct findings in
// FalseFiles counted as the paper's false positives), plus exactly one
// direct finding at a taint probe's line. An analysis-incomplete finding
// fails the op: the run did not verify what it was asked to.
func checkCensus(a *appInput, fs []finding, probe *edit) error {
	probeSeen := false
	var real, falsePos, indirect int
	for _, f := range fs {
		switch {
		case f.Kind == "unknown":
			return fmt.Errorf("%s: analysis incomplete at %s:%d", a.Slug, f.File, f.Line)
		case probe != nil && f.File == probe.File && f.Line == probe.Line:
			if f.Kind != "direct" || probeSeen {
				return fmt.Errorf("%s: probe at %s:%d reported as %s", a.Slug, f.File, f.Line, f.Kind)
			}
			probeSeen = true
		case f.Kind == "indirect":
			indirect++
		case a.FalseFiles[f.File]:
			falsePos++
		default:
			real++
		}
	}
	if probe != nil && !probeSeen {
		return fmt.Errorf("%s: taint probe at %s:%d not reported", a.Slug, probe.File, probe.Line)
	}
	want := a.Expect
	if real != want.DirectReal || falsePos != want.DirectFalse || indirect != want.Indirect {
		return fmt.Errorf("%s: census %d real / %d false / %d indirect, want %d / %d / %d",
			a.Slug, real, falsePos, indirect, want.DirectReal, want.DirectFalse, want.Indirect)
	}
	return nil
}

// scanReport is the part of sqlcheck -json (and of the daemon's response)
// the oracle reads.
type scanReport struct {
	Findings []struct {
		File      string          `json:"file"`
		Line      int             `json:"line"`
		Kind      string          `json:"kind"`
		Check     json.RawMessage `json:"check"`
		CheckName string          `json:"check_name"`
		Witness   string          `json:"witness"`
		Source    string          `json:"source"`
	} `json:"findings"`
}

// parseFindings decodes sqlcheck -json output or a daemon response body.
func parseFindings(body []byte) ([]finding, error) {
	var rep scanReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	out := make([]finding, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		// sqlcheck -json renders the check by name; the daemon wire
		// carries its number in "check" and the name in "check_name".
		check := f.CheckName
		if check == "" {
			if err := json.Unmarshal(f.Check, &check); err != nil {
				return nil, fmt.Errorf("decode report: check %s: %w", f.Check, err)
			}
		}
		out = append(out, finding{File: f.File, Line: f.Line, Kind: f.Kind, Check: check,
			Witness: f.Witness, Source: f.Source})
	}
	return out, nil
}

// checkScan judges one sqlcheck process: exit codes 0 (verified) and 1
// (findings) are success, anything else fails the op before the census is
// looked at.
func checkScan(a *appInput, exitCode int, stdout []byte, probe *edit) ([]finding, error) {
	if exitCode != 0 && exitCode != 1 {
		return nil, fmt.Errorf("%s: sqlcheck exited %d", a.Slug, exitCode)
	}
	fs, err := parseFindings(stdout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Slug, err)
	}
	return fs, checkCensus(a, fs, probe)
}

// checkResponse judges one daemon response: any non-2xx status (429
// included) fails the op.
func checkResponse(a *appInput, status int, body []byte, probe *edit) ([]finding, error) {
	if status < 200 || status > 299 {
		return nil, fmt.Errorf("%s: HTTP %d", a.Slug, status)
	}
	fs, err := parseFindings(body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Slug, err)
	}
	return fs, checkCensus(a, fs, probe)
}

// checkDecision judges one guard decision against the stream's expectation:
// every query a page execution issued must pass, every attack must block.
func checkDecision(q guardQuery, allowed bool) error {
	if allowed == q.Block {
		verb := "blocked"
		if allowed {
			verb = "allowed"
		}
		return fmt.Errorf("%s %s query at %s: %q", verb, map[bool]string{true: "attack", false: "executed"}[q.Block], q.Key, q.SQL)
	}
	return nil
}

// sameFindings reports whether two runs produced the same findings, in any
// order.
func sameFindings(a, b []finding) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := sortedFindings(a), sortedFindings(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func sortedFindings(fs []finding) []finding {
	out := append([]finding(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Witness < b.Witness
	})
	return out
}

// tally counts ops attempted and failed. Failed ops are counted, never
// filtered: a failing op's time still enters the distribution.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}
