// Package lint implements trajlint, a repo-specific static-analysis suite
// built only on the standard library's go/ast, go/parser, go/token,
// go/types and go/importer packages.
//
// The paper's correctness story rests on delicate floating-point math (the
// time-ratio synchronized distance, the closed-form ∫√(c1·t²+c2·t+c3) dt
// integral with its case split) and, as the system grows into a concurrent
// service, on goroutine-lifetime discipline. These invariants are easy to
// violate in refactors and invisible to the compiler, go vet, the race
// detector and the tests, so this package machine-enforces them:
//
//   - layering:  internal packages may only import the internal packages a
//     declarative rules table allows (DESIGN.md dependency structure), and
//     the table may hold no row without a package and no edge without a
//     non-test import;
//   - floatcmp:  == / != on floating-point operands must be annotated as
//     intentional degenerate-case guards or rewritten with an epsilon;
//   - floatstep: loops may not advance a float loop variable by
//     accumulation (t += dt) while it bounds the loop — rounding drift
//     shifts or drops the final iterations at Unix-epoch-scale
//     timestamps; step by index (t = t0 + float64(i)·dt) instead;
//   - nanguard:  exported float64-returning functions in the numeric core
//     that call math.Sqrt/Asinh/... or divide must guard for NaN/Inf or
//     document their precondition;
//   - errcheck:  error results may not be silently dropped (`_ =` is an
//     explicit, visible discard and is accepted); deferred Close on
//     write-path files is flagged;
//   - goroleak:  goroutines in the serving layers must have a visible
//     cancellation/tracking path (WaitGroup, channel receive, context).
//
// Findings are suppressed case-by-case with an in-source annotation on, or
// in the comment block directly above, the offending line:
//
//	//lint:allow <analyzer> <reason>
package lint

import (
	"fmt"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-root-relative, forward slashes
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Config selects which packages each analyzer applies to. The zero value
// runs every analyzer with no layering table; use DefaultConfig for this
// repository's rules.
type Config struct {
	// LayerRules maps a short internal package key ("geo", "sed", ...) to
	// the set of short keys it may import. Internal packages absent from
	// the table are themselves flagged, so new packages must be registered;
	// so are rows without a package and edges no non-test file uses, so the
	// table cannot outlive the imports it describes.
	LayerRules map[string][]string

	// NaNGuardPkgs are the short keys of the numeric-core packages subject
	// to the nanguard analyzer.
	NaNGuardPkgs map[string]bool

	// GoroutinePkgs are the short keys of the serving-layer packages
	// subject to the goroleak analyzer.
	GoroutinePkgs map[string]bool
}

// DefaultConfig returns the rules for this repository.
func DefaultConfig() *Config {
	return &Config{
		LayerRules:    DefaultLayerRules(),
		NaNGuardPkgs:  map[string]bool{"geo": true, "sed": true, "compress": true},
		GoroutinePkgs: map[string]bool{"server": true, "stream": true, "repl": true},
	}
}

// DefaultLayerRules is the declarative dependency table for internal/*
// (DESIGN.md §"Static analysis & invariants"). A package may import exactly
// the internal packages listed; the substrate packages (geo, trajectory)
// sit at the bottom, and the numeric core (sed, compress) must never reach
// up into the service layers (store, wal, server).
func DefaultLayerRules() map[string][]string {
	return map[string][]string{
		"geo":         {},
		"trajectory":  {"geo"},
		"sed":         {"geo", "trajectory"},
		"roadnet":     {"geo"},
		"rtree":       {"geo"},
		"metrics":     {},
		"fault":       {"metrics"},
		"compress":    {"geo", "trajectory", "sed"},
		"quality":     {"geo", "trajectory", "sed"},
		"gpsgen":      {"geo", "trajectory"},
		"codec":       {"geo", "trajectory"},
		"mapmatch":    {"trajectory", "roadnet"},
		"stream":      {"trajectory", "compress", "metrics"},
		"bus":         {"geo", "trajectory", "stream", "metrics"},
		"seal":        {"geo", "trajectory", "rtree", "metrics"},
		"store":       {"geo", "trajectory", "rtree", "stream", "metrics", "seal"},
		"wal":         {"trajectory", "store", "metrics", "fault"},
		"repl":        {"metrics", "wal"},
		"server":      {"geo", "trajectory", "store", "stream", "repl", "metrics", "bus"},
		"plot":        {"trajectory"},
		"experiments": {"trajectory", "sed", "compress", "gpsgen", "mapmatch", "roadnet"},
		"lint":        {},
		"ciyaml":      {},
	}
}

// An analyzer inspects one package and reports findings. Suppression is
// handled centrally in Run.
type analyzer struct {
	name string
	run  func(m *Module, p *Package, cfg *Config) []Diagnostic
	// tests marks an analyzer that also binds _test.go files: the torture
	// and group-commit tests start goroutines of their own, while the float,
	// layering and error rules intentionally do not bind tests.
	tests bool
}

func analyzers() []analyzer {
	return []analyzer{
		{name: "layering", run: layering},
		{name: "floatcmp", run: floatcmp},
		{name: "floatstep", run: floatstep},
		{name: "nanguard", run: nanguard},
		{name: "errcheck", run: errcheck},
		{name: "goroleak", run: goroleak, tests: true},
	}
}

// AnalyzerNames lists every analyzer in the suite.
func AnalyzerNames() []string {
	as := analyzers()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.name
	}
	return names
}

// Run executes the full analyzer suite over the module and returns the
// unsuppressed findings sorted by position.
func Run(m *Module, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = &Config{}
	}
	var out []Diagnostic
	for _, p := range m.Packages {
		for _, a := range analyzers() {
			for _, d := range a.run(m, p, cfg) {
				d.Analyzer = a.name
				if m.testFiles[d.File] && !a.tests {
					continue // tests are exempt from the style/float rules
				}
				if p.TestOnly && !m.testFiles[d.File] {
					// A test package re-checks its base sources; findings in
					// them are duplicates of the base package's run.
					continue
				}
				if m.allowed(d.File, d.Line, a.name) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	out = append(out, staleLayerRows(m, cfg)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
