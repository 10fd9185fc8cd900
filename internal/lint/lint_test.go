package lint_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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
			"locks":   {},
			"order":   {},
			"atomics": {},
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

// TestFixtureCoversEveryAnalyzer guarantees each analyzer family has at
// least one positive case in the fixture — a fixture edit that silences a
// family fails here, not silently.
func TestFixtureCoversEveryAnalyzer(t *testing.T) {
	seen := make(map[string]int)
	for _, d := range fixtureFindings(t) {
		seen[d.Analyzer]++
	}
	for _, name := range lint.AnalyzerNames() {
		if seen[name] == 0 {
			t.Errorf("analyzer %s has no positive case in the fixture module", name)
		}
	}
}

// TestFixtureNegatives: the geo fixture package is all negatives — an
// annotated float comparison, a documented Sqrt, a guarded division, so any
// finding there is an analyzer regression. Likewise the tracked and
// channel-fed goroutines, the pointer-receiver method, the explicit `_ =`
// discard and the fmt.Fprintln call must stay silent.
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
		switch {
		case d.Analyzer == "mutexguard" && strings.Contains(d.Message, "counter.hits"):
			t.Errorf("mutexguard inferred a guard from a single access: %s", d)
		case d.Analyzer == "mutexguard" && strings.Contains(d.File, "locks") && d.Line <= 30 && d.Line >= 19:
			t.Errorf("mutexguard flagged construction-phase or locked access: %s", d)
		case d.Analyzer == "lockorder" && strings.Contains(d.Message, "flushLocked"):
			t.Errorf("lockorder missed the release-around-fsync exemption: %s", d)
		case d.Analyzer == "lockorder" && d.File == "internal/order/order.go" && d.Line > 95:
			t.Errorf("lockorder flagged the nonblocking select send in TryEmit: %s", d)
		case d.Analyzer == "atomicmix" && (strings.Contains(d.Message, "total") || strings.Contains(d.Message, "ops") || strings.Contains(d.Message, "safe")):
			t.Errorf("atomicmix flagged a consistently-atomic or typed-atomic access: %s", d)
		}
	}
	// The RWMutex read path is a deliberate negative: Get reads under RLock.
	for _, d := range fixtureFindings(t) {
		if d.Analyzer == "mutexguard" && d.File == "internal/locks/locks.go" && d.Line >= 65 && d.Line <= 70 {
			t.Errorf("mutexguard flagged a read under RLock: %s", d)
		}
	}
}

// TestGuardInference pins the mutexguard tally on the fixture, proving the
// cross-function (ambient lock) propagation: counter.add is only guarded
// because every call site holds c.mu, and without that propagation the
// majority flips and counter.n stops being inferred at all.
func TestGuardInference(t *testing.T) {
	m := loadFixture(t)
	g, u, ok := lint.GuardTally(m, "locks.counter.n")
	if !ok {
		t.Fatal("no tally for locks.counter.n: field accesses were not tracked")
	}
	if g != 2 || u != 1 {
		t.Errorf("locks.counter.n tally = %d guarded / %d unguarded, want 2/1 (is ambient-lock propagation through counter.add broken?)", g, u)
	}
	if _, _, ok := lint.GuardTally(m, "locks.counter.hits"); !ok {
		t.Error("no tally for locks.counter.hits")
	}
	if g, u, _ := lint.GuardTally(m, "locks.counter.hits"); g != 0 || u != 1 {
		t.Errorf("locks.counter.hits tally = %d/%d, want 0/1 (single access must not infer a guard)", g, u)
	}
}

// TestFixtureTestsMode loads the fixture with _test.go files included:
// concurrency analyzers must see the untracked goroutine in srv_test.go,
// while the style analyzers must keep ignoring test files (the float
// comparison there stays silent).
func TestFixtureTestsMode(t *testing.T) {
	m, err := lint.LoadWithTests(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("loading fixture module with tests: %v", err)
	}
	ds := lint.Run(m, fixtureConfig())
	var sawTestLeak bool
	for _, d := range ds {
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
		t.Error("-tests mode missed the untracked goroutine in srv_test.go")
	}
}

// TestAllowlistSuppression: formatting every finding into an allowlist file,
// parsing it back, and re-running must suppress everything.
func TestAllowlistSuppression(t *testing.T) {
	ds := fixtureFindings(t)
	if len(ds) == 0 {
		t.Fatal("fixture produced no findings to suppress")
	}
	allow, err := lint.ParseAllowlist(lint.FormatAllowlist(ds))
	if err != nil {
		t.Fatalf("round-tripping allowlist: %v", err)
	}
	cfg := fixtureConfig()
	cfg.Allowlist = allow
	if left := lint.Run(loadFixture(t), cfg); len(left) != 0 {
		t.Errorf("allowlist left %d findings unsuppressed, first: %s", len(left), left[0])
	}
}

func TestParseAllowlistMalformed(t *testing.T) {
	if _, err := lint.ParseAllowlist("floatcmp missing-line-number\n"); err == nil {
		t.Error("ParseAllowlist accepted an entry without a file:line")
	}
	got, err := lint.ParseAllowlist("# comment\n\nfloatcmp internal/geo/point.go:42 reason text here\n")
	if err != nil {
		t.Fatal(err)
	}
	if !got["floatcmp internal/geo/point.go:42"] {
		t.Errorf("ParseAllowlist dropped a valid entry: %v", got)
	}
}

// TestPruneAllowlist: entries whose findings no longer fire are reported
// stale and dropped from the rewritten file, while comments, blanks, and
// live entries survive verbatim.
func TestPruneAllowlist(t *testing.T) {
	data := "# keep this comment\n\nfloatcmp internal/geo/point.go:42 still real\nerrcheck internal/iox/w.go:9 fixed long ago\n"
	live := map[string]bool{"floatcmp internal/geo/point.go:42": true}
	kept, stale, err := lint.PruneAllowlist(data, live)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 1 || stale[0] != "errcheck internal/iox/w.go:9 fixed long ago" {
		t.Errorf("stale = %q, want the fixed errcheck entry", stale)
	}
	if !strings.Contains(kept, "# keep this comment") || !strings.Contains(kept, "floatcmp internal/geo/point.go:42") {
		t.Errorf("pruned file lost a comment or live entry:\n%s", kept)
	}
	if strings.Contains(kept, "errcheck") {
		t.Errorf("pruned file kept the stale entry:\n%s", kept)
	}
	if _, _, err := lint.PruneAllowlist("not a valid line\n", nil); err == nil {
		t.Error("PruneAllowlist accepted a malformed allowlist")
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
	ds := lint.Run(m, lint.DefaultConfig())
	for _, d := range ds {
		t.Errorf("repository finding: %s", d)
	}
	// A clean run is only meaningful if inference is not vacuous: the store
	// shards really do guard their object maps, and the module really does
	// have lock-acquisition edges to order.
	if g, u, ok := lint.GuardTally(m, "store.shard.objects"); !ok || g < 2 || g <= u {
		t.Errorf("store.shard.objects not inferred guarded (tally %d/%d, ok=%v): mutexguard is vacuous over the real module", g, u, ok)
	}
	if n := lint.LockEdges(m); n == 0 {
		t.Error("lock-acquisition graph is empty over the real module: lockorder is vacuous")
	}
}
