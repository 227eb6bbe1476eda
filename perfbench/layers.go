// layers.go holds the benchmark's calls into sqlciv/internal/... that the
// generator, the oracle and the tests share. The timed runs drive the
// built binaries and the public sqlciv/enforce library; the traced run
// drives core.AnalyzeApp in-process (trace.go).
package main

import (
	"path/filepath"

	"sqlciv/internal/analysis"
	"sqlciv/internal/core"
	"sqlciv/internal/corpus"
	"sqlciv/internal/interp"
	"sqlciv/internal/policy"
	"sqlciv/internal/sqlgram"
	"sqlciv/internal/vcache"
)

type (
	expectation   = corpus.Expectation
	mapResolver   = analysis.MapResolver
	queryEvent    = interp.QueryEvent
	interpOptions = interp.Options
)

// corpusApps returns the five Table 1 subjects in the paper's order.
func corpusApps() []*corpus.App { return corpus.Apps() }

func newMapResolver(sources map[string]string) *mapResolver {
	return analysis.NewMapResolver(sources)
}

// storeDir is where sqlcheck and sqlcheckd keep their verdict store when
// XDG_CACHE_HOME is cacheHome (vcache.DefaultDir under os.UserCacheDir).
func storeDir(cacheHome string) string { return filepath.Join(cacheHome, "sqlciv", "vcache") }

// runPageWith executes one page concretely under the interpreter.
func runPageWith(r *mapResolver, entry string, opts interpOptions) ([]queryEvent, error) {
	res, err := interp.Run(r, entry, opts)
	if err != nil {
		return nil, err
	}
	return res.Queries, nil
}

// confined is the Definition 2.2 oracle: whether query[a:b] is a
// syntactically confined part of the SQL query.
func confined(query string, a, b int) bool { return sqlgram.Get().Confined(query, a, b) }

// analyzeApp runs the library driver over an app (the guard set-up replay
// and the tests use it; the timed paths drive the binaries).
func analyzeApp(sources map[string]string, entries []string, store *vcache.Store) ([]finding, *core.AppResult, error) {
	res, err := core.AnalyzeApp(analysis.NewMapResolver(sources), entries, core.Options{VerdictCache: store})
	if err != nil {
		return nil, nil, err
	}
	return findingsOf(res), res, nil
}

// findingsOf renders a run's findings in the shape the sqlcheck -json
// output and the daemon wire use.
func findingsOf(res *core.AppResult) []finding {
	var out []finding
	for _, f := range res.Findings {
		kind := "indirect"
		if f.Direct() {
			kind = "direct"
		}
		if f.Check == policy.CheckAnalysisIncomplete {
			kind = "unknown"
		}
		out = append(out, finding{File: f.File, Line: f.Line, Kind: kind, Check: f.Check.String(),
			Witness: f.Witness, Source: f.Source})
	}
	return out
}

// buildPack compiles a finished run's hotspot languages into a policy pack,
// as sqlcheck -emit-pack does.
func buildPack(res *core.AppResult) ([]byte, core.PackStats, error) {
	return core.BuildPack(res, core.PackOptions{})
}
