package lint_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current fixture findings")

// fixtureConfig mirrors DefaultConfig for the fixture module under
// testdata/src: srv is the serving layer, badmath and geo the numeric core.
// The rules table deliberately omits package rogue, forbids srv→badmath,
// allows a srv→geo edge that srv does not use and keeps a row for a
// package ghost that does not exist, so every layering finding kind has a
// seeded positive.
func fixtureConfig() *lint.Config {
	return &lint.Config{
		LayerRules: map[string][]string{
			"geo":     {},
			"badmath": {},
			"srv":     {"geo"},
			"ghost":   {"geo"},
			"iox":     {},
		},
		NaNGuardPkgs:  map[string]bool{"badmath": true, "geo": true},
		GoroutinePkgs: map[string]bool{"srv": true},
	}
}

var (
	fixtureOnce sync.Once
	fixtureMod  *lint.Module
	fixtureErr  error
)

func loadFixture(t *testing.T) *lint.Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = lint.Load(filepath.Join("testdata", "src"))
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	return fixtureMod
}

func fixtureFindings(t *testing.T) []lint.Diagnostic {
	t.Helper()
	return lint.Run(loadFixture(t), fixtureConfig())
}

// TestFixtureGolden pins the exact findings on the seeded-violation fixture
// module. Regenerate with: go test ./internal/lint -run Golden -update
func TestFixtureGolden(t *testing.T) {
	ds := fixtureFindings(t)
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fixture findings diverge from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFixtureCoversEveryAnalyzer holds each analyzer's reason to exist:
// the defect it was written for, the fixture line that reproduces it, and a
// check that it fires there. Put back into the module, each of these
// defects passes go vet, go test -race and both torture smokes (DESIGN §6
// lists the mutants); an analyzer whose defect one of those catches gets no
// row and leaves the suite.
func TestFixtureCoversEveryAnalyzer(t *testing.T) {
	reasons := []struct{ analyzer, original, at string }{
		{"layering", "PR 16: store kept a codec import for Save/Load, which only the facade called", "internal/srv/srv.go:8"},
		{"floatcmp", "PR 1: exact zero tests on GPS-jitter segment lengths, now geo.MinSegLen guards", "internal/badmath/badmath.go:8"},
		{"floatstep", "PR 5: t += dt sweeps that shift or drop the last instant at epoch-scale times", "internal/badmath/badmath.go:20"},
		{"nanguard", "PR 1: sed.AvgError returned NaN for non-finite input, now ErrNonFinite", "internal/badmath/badmath.go:11"},
		{"errcheck", "none on file; mutant: trajgen's deferred Close drops its output file's write error", "internal/iox/iox.go:26"},
		{"goroleak", "PR 1: the SUBSCRIBE hangup watcher outlived Server.Close", "internal/srv/srv.go:33"},
	}
	fired := make(map[string]bool)
	for _, d := range fixtureFindings(t) {
		fired[d.Analyzer+" "+d.File+":"+strconv.Itoa(d.Line)] = true
	}
	covered := make(map[string]bool)
	for _, r := range reasons {
		covered[r.analyzer] = true
		if !fired[r.analyzer+" "+r.at] {
			t.Errorf("%s does not fire at %s, its fixture for %q", r.analyzer, r.at, r.original)
		}
	}
	for _, name := range lint.AnalyzerNames() {
		if !covered[name] {
			t.Errorf("analyzer %s has no original on file", name)
		}
	}
}

// TestFixtureNegatives: the geo fixture package is all negatives — an
// annotated float comparison, a documented Sqrt, a guarded division, so any
// finding there is an analyzer regression. Likewise the tracked and
// channel-fed goroutines, the explicit `_ =` discard and the fmt.Fprintln
// call must stay silent.
func TestFixtureNegatives(t *testing.T) {
	for _, d := range fixtureFindings(t) {
		if strings.HasPrefix(d.File, "internal/geo/") {
			t.Errorf("unexpected finding in all-negative fixture package geo: %s", d)
		}
		if d.Analyzer == "goroleak" && d.Line >= 39 {
			t.Errorf("goroleak flagged a tracked goroutine: %s", d)
		}
		if d.Analyzer == "errcheck" && (strings.Contains(d.Message, "Fprintln") || d.Line == 17) {
			t.Errorf("errcheck flagged a conventional discard: %s", d)
		}
	}
}

// TestFixtureTestsMode: goroleak must see the untracked goroutine in
// srv_test.go, while the style analyzers keep ignoring test files (the
// float comparison there stays silent).
func TestFixtureTestsMode(t *testing.T) {
	var sawTestLeak bool
	for _, d := range fixtureFindings(t) {
		if !strings.HasSuffix(d.File, "_test.go") {
			continue
		}
		switch d.Analyzer {
		case "goroleak":
			sawTestLeak = true
		case "floatcmp":
			t.Errorf("style analyzer ran on a test file: %s", d)
		}
	}
	if !sawTestLeak {
		t.Error("goroleak missed the untracked goroutine in srv_test.go")
	}
}

func TestDiagnosticJSON(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "floatcmp", File: "internal/x/x.go", Line: 3, Col: 7, Message: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"floatcmp","file":"internal/x/x.go","line":3,"col":7,"message":"m"}`
	if string(b) != want {
		t.Errorf("JSON shape changed:\n got %s\nwant %s", b, want)
	}
}

// TestRepoIsClean is the acceptance gate: the real module must lint clean
// under the default rules, so `go run ./cmd/trajlint ./...` exits zero.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m, err := lint.Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repository module: %v", err)
	}
	for _, d := range lint.Run(m, lint.DefaultConfig()) {
		t.Errorf("repository finding: %s", d)
	}
}
