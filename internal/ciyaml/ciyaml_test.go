package ciyaml

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return doc
}

func TestParseScalarAndNesting(t *testing.T) {
	doc := mustParse(t, `
name: demo
on:
  push:
    branches: [main, "release"]
jobs:
  build:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: go
        run: |
          go build ./...
          go test ./...
`)
	if got := doc.Get("name").Str(); got != "demo" {
		t.Errorf("name = %q, want demo", got)
	}
	branches := doc.Get("on").Get("push").Get("branches")
	if branches == nil || branches.Kind != SeqNode || len(branches.Seq) != 2 {
		t.Fatalf("branches = %+v, want 2-element seq", branches)
	}
	if branches.Seq[1].Str() != "release" {
		t.Errorf("quoted flow element = %q, want release", branches.Seq[1].Str())
	}
	steps := doc.Get("jobs").Get("build").Get("steps")
	if len(steps.Seq) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps.Seq))
	}
	if got := steps.Seq[0].Get("uses").Str(); got != "actions/checkout@v4" {
		t.Errorf("step 0 uses = %q", got)
	}
	run := steps.Seq[1].Get("run").Str()
	if run != "go build ./...\ngo test ./...\n" {
		t.Errorf("literal block = %q", run)
	}
}

func TestParseSequenceItemScalars(t *testing.T) {
	doc := mustParse(t, "xs:\n  - one\n  - 127.0.0.1:0\n")
	xs := doc.Get("xs")
	if len(xs.Seq) != 2 {
		t.Fatalf("len = %d, want 2", len(xs.Seq))
	}
	// "127.0.0.1:0" contains a colon but is not a mapping key.
	if got := xs.Seq[1].Str(); got != "127.0.0.1:0" {
		t.Errorf("scalar item = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"tab indent":     "a:\n\tb: 1\n",
		"duplicate key":  "a: 1\na: 2\n",
		"root sequence":  "- a\n- b\n",
		"flow mapping":   "a: {b: 1}\n",
		"anchor":         "a: &x 1\n",
		"bad indent":     "a:\n    b: 1\n  c: 2\n",
		"unclosed flow":  "a: [1, 2\n",
		"missing colon":  "just words\n",
		"empty literal":  "a: |\nb: 1\n",
		"seq in map":     "a: 1\n- b\n",
		"empty seq item": "xs:\n  -\n",
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: Parse accepted invalid input", name)
		}
	}
}

func TestCheckWorkflowCatchesDefects(t *testing.T) {
	cases := map[string]string{
		"no name":       "on: push\njobs:\n  a:\n    runs-on: x\n    steps:\n      - run: true\n",
		"no triggers":   "name: x\njobs:\n  a:\n    runs-on: x\n    steps:\n      - run: true\n",
		"bad trigger":   "name: x\non: pushh\njobs:\n  a:\n    runs-on: x\n    steps:\n      - run: true\n",
		"no jobs":       "name: x\non: push\njobs:\n",
		"no runs-on":    "name: x\non: push\njobs:\n  a:\n    steps:\n      - run: true\n",
		"no steps":      "name: x\non: push\njobs:\n  a:\n    runs-on: x\n",
		"bare step":     "name: x\non: push\njobs:\n  a:\n    runs-on: x\n    steps:\n      - name: hm\n",
		"unpinned uses": "name: x\non: push\njobs:\n  a:\n    runs-on: x\n    steps:\n      - uses: actions/checkout\n",
		"empty matrix":  "name: x\non: push\njobs:\n  a:\n    runs-on: x\n    strategy:\n      fail-fast: false\n    steps:\n      - run: true\n",
		"uses plus run": "name: x\non: push\njobs:\n  a:\n    runs-on: x\n    steps:\n      - uses: a/b@v1\n        run: true\n",
	}
	for name, src := range cases {
		doc := mustParse(t, src)
		if probs := CheckWorkflow(doc); len(probs) == 0 {
			t.Errorf("%s: CheckWorkflow found no problems", name)
		}
	}
}

// repoRoot walks up from the package directory to the directory holding
// go.mod, so the test finds the real workflow file regardless of cwd.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package directory")
		}
		dir = parent
	}
}

// TestRepoWorkflowsValid is the point of this package: every committed
// workflow parses, passes the structural checks, and only references repo
// scripts that actually exist.
func TestRepoWorkflowsValid(t *testing.T) {
	root := repoRoot(t)
	pattern := filepath.Join(root, ".github", "workflows", "*.yml")
	files, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no workflow files match %s", pattern)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
			continue
		}
		for _, p := range CheckWorkflow(doc) {
			t.Errorf("%s: %s", filepath.Base(f), p)
		}
		for _, ref := range ScriptRefs(doc) {
			if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
				t.Errorf("%s: references missing script %s", filepath.Base(f), ref)
			}
		}
	}
}

// TestCIScriptsExerciseColdTier pins the cold-tier coverage of the torture
// harness: it must run its seal mode so every SIGKILL cycle verifies the
// cold tier regenerates from the WAL. (What the benchmark exercises is fixed
// in bench/spec.go, not configured by a script.)
func TestCIScriptsExerciseColdTier(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(repoRoot(t), "scripts", "torture.sh"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "-seal-eps") {
		t.Error("scripts/torture.sh does not use -seal-eps: torture must verify cold-tier regenerability")
	}
}

// TestCIScriptsExerciseReplication pins the replication coverage of the CI
// entry points: the torture script must offer the two-node mode in both ack
// flavours with per-node artifact directories, and the verify gate must run
// the replication smoke. Dropping any of these would silently un-gate the
// failover path.
func TestCIScriptsExerciseReplication(t *testing.T) {
	root := repoRoot(t)
	checks := []struct{ file, substr, why string }{
		{"scripts/torture.sh", "--repl-smoke", "torture must define the replication smoke mode"},
		{"scripts/torture.sh", "-repl-ack follower", "replication torture must cover kill-primary/PROMOTE cycles"},
		{"scripts/torture.sh", "-repl-ack primary", "replication torture must cover kill-follower + shedding cycles"},
		{"scripts/torture.sh", "-workdir", "multi-process failures must collect per-node WALs and logs"},
		{"scripts/check.sh", "--repl-smoke", "the verify gate must run the replication smoke"},
	}
	for _, c := range checks {
		src, err := os.ReadFile(filepath.Join(root, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), c.substr) {
			t.Errorf("%s does not use %q: %s", c.file, c.substr, c.why)
		}
	}
}

// TestCIScriptsBuildBenchModule pins the coverage of the frozen benchmark
// harness: bench/ is its own module, invisible to `go build ./...` and
// `go test ./...`, so the verify gate must build and run it explicitly (and
// the CI check job must run the verify gate) — otherwise a signature drift
// against the harness surfaces only at the next benchmark run.
func TestCIScriptsBuildBenchModule(t *testing.T) {
	root := repoRoot(t)
	checks := []struct{ file, substr, why string }{
		{"scripts/check.sh", "bash bench/run.sh -smoke", "the verify gate must run the benchmark smoke against this checkout's trajserver"},
		{"scripts/check.sh", "cd bench && export GOFLAGS=-mod=mod && go vet . && go test .", "the verify gate must vet and test the bench module"},
		{".github/workflows/ci.yml", "bash scripts/check.sh", "the CI check job must run the verify gate"},
	}
	for _, c := range checks {
		src, err := os.ReadFile(filepath.Join(root, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), c.substr) {
			t.Errorf("%s does not use %q: %s", c.file, c.substr, c.why)
		}
	}
}

// TestCIWorkflowShape pins the specifics ISSUE-level requirements of
// ci.yml: a blocking check job on the two most recent Go releases with
// caching, and a non-blocking bench-compare job.
func TestCIWorkflowShape(t *testing.T) {
	root := repoRoot(t)
	src, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}

	// Superseded PR runs must be cancelled (one concurrency group per ref),
	// but push/schedule runs on main must never be: losing a merge-gate run
	// from history would hide when a regression actually landed.
	conc := doc.Get("concurrency")
	if conc == nil {
		t.Error("ci.yml has no workflow-level concurrency block")
	} else {
		group := conc.Get("group").Str()
		if !strings.Contains(group, "github.workflow") || !strings.Contains(group, "github.ref") {
			t.Errorf("concurrency group %q does not key on workflow+ref", group)
		}
		cancel := conc.Get("cancel-in-progress").Str()
		if !strings.Contains(cancel, "pull_request") {
			t.Errorf("cancel-in-progress %q must cancel only superseded pull_request runs", cancel)
		}
	}

	jobs := doc.Get("jobs")

	check := jobs.Get("check")
	if check == nil {
		t.Fatal("ci.yml has no check job")
	}
	goVers := check.Get("strategy").Get("matrix").Get("go")
	if goVers == nil || len(goVers.Seq) != 2 {
		t.Fatalf("check matrix go = %+v, want [oldstable stable]", goVers)
	}
	want := map[string]bool{"oldstable": true, "stable": true}
	for _, v := range goVers.Seq {
		if !want[v.Str()] {
			t.Errorf("unexpected matrix go version %q", v.Str())
		}
	}
	cached := false
	for _, step := range check.Get("steps").Seq {
		if step.Get("uses") != nil && step.Get("with").Get("cache").Str() == "true" {
			cached = true
		}
	}
	if !cached {
		t.Error("check job does not enable setup-go caching")
	}

	lintJob := jobs.Get("lint")
	if lintJob == nil {
		t.Fatal("ci.yml has no lint job")
	}
	var runsLint, uploadsFindings bool
	for _, step := range lintJob.Get("steps").Seq {
		if strings.Contains(step.Get("run").Str(), "cmd/trajlint -json ./...") {
			runsLint = true
		}
		if strings.Contains(step.Get("uses").Str(), "upload-artifact") &&
			step.Get("if").Str() == "always()" &&
			strings.Contains(step.Get("with").Get("path").Str(), "trajlint.json") {
			uploadsFindings = true
		}
	}
	if !runsLint {
		t.Error("lint job does not run trajlint -json ./...")
	}
	if !uploadsFindings {
		t.Error("lint job does not upload trajlint.json unconditionally (if: always())")
	}
	// -json is trajlint's one working flag: no invocation in the workflow or
	// the scripts may pass another, so the gate and CI lint the same way.
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(scripts, filepath.Join(root, ".github", "workflows", "ci.yml")) {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(text), "\n") {
			_, args, ok := strings.Cut(line, "cmd/trajlint")
			if !ok {
				continue
			}
			for _, arg := range strings.Fields(args) {
				if arg == "|" || arg == "&&" || arg == ";" || strings.HasPrefix(arg, "#") {
					break // end of the trajlint command
				}
				if strings.HasPrefix(arg, "-") && arg != "-json" {
					t.Errorf("%s passes trajlint %s; the gate and CI pass -json only: %q", filepath.Base(f), arg, strings.TrimSpace(line))
				}
			}
		}
	}

	replJob := jobs.Get("repl-torture")
	if replJob == nil {
		t.Fatal("ci.yml has no repl-torture job")
	}
	var runsReplTorture, uploadsReplArtifacts bool
	for _, step := range replJob.Get("steps").Seq {
		if strings.Contains(step.Get("run").Str(), "scripts/torture.sh --repl") {
			runsReplTorture = true
		}
		if strings.Contains(step.Get("uses").Str(), "upload-artifact") &&
			step.Get("if").Str() == "failure()" {
			uploadsReplArtifacts = true
		}
	}
	if !runsReplTorture {
		t.Error("repl-torture job does not run scripts/torture.sh --repl")
	}
	if !uploadsReplArtifacts {
		t.Error("repl-torture job does not upload per-node artifacts on failure")
	}

	bench := jobs.Get("bench-compare")
	if bench == nil {
		t.Fatal("ci.yml has no bench-compare job")
	}
	if bench.Get("continue-on-error").Str() != "true" {
		t.Error("bench-compare must be non-blocking (continue-on-error: true)")
	}
	// The job must run the regression gate script, and that script must be
	// the paired bench/ comparison, not a comparison against a committed file.
	runsGate := false
	for _, step := range bench.Get("steps").Seq {
		if strings.Contains(step.Get("run").Str(), "scripts/bench_compare.sh") {
			runsGate = true
		}
	}
	if !runsGate {
		t.Error("bench-compare job does not run scripts/bench_compare.sh")
	}
	gate, err := os.ReadFile(filepath.Join(root, "scripts", "bench_compare.sh"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gate), "bench/run.sh -compare") {
		t.Error("scripts/bench_compare.sh does not judge the two reports with bench/run.sh -compare")
	}
	// Spelled in halves so that a grep of the tree for the retired names
	// finds only the history files.
	for _, retired := range []string{"traj" + "load", "BENCH_" + "load.json"} {
		if strings.Contains(string(gate), retired) {
			t.Errorf("scripts/bench_compare.sh mentions the retired %s", retired)
		}
	}
}

// TestCIFuzzJobShape pins the scheduled fuzz sweep: ci.yml must trigger on
// schedule and workflow_dispatch, and the fuzz job must run `go test -fuzz`
// with a time budget over every registered fuzz target (gated off the merge
// path) and upload new crashers from testdata/fuzz/ on failure. Adding a
// fuzz target without extending the matrix here fails this test, so the
// sweep can never silently fall out of sync with the target inventory.
func TestCIFuzzJobShape(t *testing.T) {
	root := repoRoot(t)
	src, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}

	on := doc.Get("on")
	for _, ev := range []string{"schedule", "workflow_dispatch"} {
		if on.Get(ev) == nil {
			t.Errorf("ci.yml does not trigger on %s (the fuzz job would never run)", ev)
		}
	}
	if sched := on.Get("schedule"); sched != nil {
		if sched.Kind != SeqNode || len(sched.Seq) == 0 || sched.Seq[0].Get("cron").Str() == "" {
			t.Error("schedule trigger has no cron entry")
		}
	}

	fuzz := doc.Get("jobs").Get("fuzz")
	if fuzz == nil {
		t.Fatal("ci.yml has no fuzz job")
	}
	cond := fuzz.Get("if").Str()
	if !strings.Contains(cond, "schedule") || !strings.Contains(cond, "workflow_dispatch") {
		t.Errorf("fuzz job if-condition %q must restrict it to schedule/workflow_dispatch", cond)
	}

	// Every fuzz target in the repo must appear in the matrix, paired with
	// its package.
	want := map[string]string{
		"FuzzParse":                   "./internal/compress",
		"FuzzCompressInvariants":      "./internal/compress",
		"FuzzOnePassErrorBound":       "./internal/compress",
		"FuzzOPWSPStreamMatchesBatch": "./internal/stream",
		"FuzzOPERBStreamMatchesBatch": "./internal/stream",
		"FuzzCISEDStreamMatchesBatch": "./internal/stream",
		"FuzzDecodeFile":              "./internal/codec",
		"FuzzDecodeCSV":               "./internal/codec",
		"FuzzWALDecode":               "./internal/wal",
		"FuzzCommandLine":             "./internal/server",
		"FuzzFollowerStream":          "./internal/repl",
		"FuzzPrimaryAck":              "./internal/repl",
		"FuzzStoreQuery":              "./internal/store",
	}
	include := fuzz.Get("strategy").Get("matrix").Get("include")
	if include == nil || include.Kind != SeqNode {
		t.Fatal("fuzz job has no matrix include list")
	}
	got := map[string]string{}
	for _, entry := range include.Seq {
		got[entry.Get("target").Str()] = entry.Get("pkg").Str()
	}
	for target, pkg := range want {
		if got[target] != pkg {
			t.Errorf("fuzz matrix: target %s has pkg %q, want %q", target, got[target], pkg)
		}
	}
	for target := range got {
		if _, ok := want[target]; !ok {
			t.Errorf("fuzz matrix lists unknown target %s (update this test's inventory)", target)
		}
	}

	var runsFuzz, uploadsCrashers bool
	for _, step := range fuzz.Get("steps").Seq {
		run := step.Get("run").Str()
		if strings.Contains(run, "-fuzz=") && strings.Contains(run, "-fuzztime=") &&
			strings.Contains(run, "matrix.target") {
			runsFuzz = true
		}
		if strings.Contains(step.Get("uses").Str(), "upload-artifact") &&
			step.Get("if").Str() == "failure()" &&
			strings.Contains(step.Get("with").Get("path").Str(), "testdata/fuzz") {
			uploadsCrashers = true
		}
	}
	if !runsFuzz {
		t.Error("fuzz job does not run go test -fuzz with a -fuzztime budget per matrix target")
	}
	if !uploadsCrashers {
		t.Error("fuzz job does not upload testdata/fuzz crashers on failure")
	}
}
