package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for perfbench as the probe child
// a timed run starts (os.Executable is the test binary here).
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-probe-child" {
		os.Exit(runProbeChild())
	}
	os.Exit(m.Run())
}

// fakeScanner writes a sqlcheck stand-in into a new directory: it prints
// the report stored beside it for the app directory it is given (its last
// argument) and exits with code.
func fakeScanner(t *testing.T, reports map[string][]byte, code string) string {
	t.Helper()
	dir := t.TempDir()
	for slug, rep := range reports {
		if err := os.WriteFile(filepath.Join(dir, slug+".json"), rep, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	script := "#!/bin/sh\nfor a; do last=$a; done\ncat \"$(dirname \"$0\")/$(basename \"$last\").json\" 2>/dev/null\nexit " + code + "\n"
	if err := os.WriteFile(filepath.Join(dir, "sqlcheck"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// assertEmpty fails unless root holds nothing: no .bench_work, no file.
func assertEmpty(t *testing.T, root string) {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("run left %s behind", filepath.Join(root, e.Name()))
	}
}

// TestRunLeavesNoFiles: a run deletes its work tree when it ends, whether
// every op succeeded or set-up failed.
func TestRunLeavesNoFiles(t *testing.T) {
	reports := map[string][]byte{}
	for _, a := range loadApps() {
		fs, _, err := analyzeApp(a.Sources, a.Entries, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(map[string]any{"findings": fs})
		if err != nil {
			t.Fatal(err)
		}
		reports[a.Slug] = data
	}
	for _, tc := range []struct {
		name, code string
		want       int
	}{
		{"success", "1", 0},
		{"setup fails", "3", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			bin := fakeScanner(t, reports, tc.code)
			if got := run([]string{"-root", root, "-bin", bin, "--workload", "audit-cold", "--seed", "3", "--seconds", "1", "--trace", "0"}); got != tc.want {
				t.Fatalf("run exited %d, want %d", got, tc.want)
			}
			assertEmpty(t, root)
		})
	}
}
