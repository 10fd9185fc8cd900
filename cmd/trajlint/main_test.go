package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run() in-process and returns the exit code plus captured
// stdout/stderr.
func runCLI(t *testing.T, workdir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, workdir)
	return code, stdout.String(), stderr.String()
}

func cleanModule(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func fixtureModule(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestExitCodeClean: a module with no findings exits 0 and prints nothing,
// with or without the ignored -tests flag.
func TestExitCodeClean(t *testing.T) {
	for _, args := range [][]string{nil, {"-tests", "./..."}} {
		code, stdout, stderr := runCLI(t, cleanModule(t), args...)
		if code != 0 {
			t.Fatalf("clean module %q exited %d, want 0\nstdout: %s\nstderr: %s", args, code, stdout, stderr)
		}
		if stdout != "" {
			t.Errorf("clean run %q wrote to stdout: %q", args, stdout)
		}
	}
}

// TestExitCodeFindings: the seeded-violation fixture module exits 1 and
// reports findings on stdout.
func TestExitCodeFindings(t *testing.T) {
	code, stdout, _ := runCLI(t, fixtureModule(t))
	if code != 1 {
		t.Fatalf("fixture module exited %d, want 1", code)
	}
	if !strings.Contains(stdout, "[floatcmp]") {
		t.Errorf("findings output missing the seeded floatcmp positive:\n%s", stdout)
	}
}

// TestExitCodeUsageError: load and usage failures exit 2, distinct from
// "findings reported".
func TestExitCodeUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, t.TempDir()); code != 2 {
		t.Errorf("no go.mod above workdir: exited %d, want 2", code)
	}
	if code, _, _ := runCLI(t, cleanModule(t), "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exited %d, want 2", code)
	}
}

// TestJSONOutputShape: -json over a clean module emits an empty JSON array,
// so artifact consumers never parse "null".
func TestJSONOutputShape(t *testing.T) {
	code, stdout, _ := runCLI(t, cleanModule(t), "-json")
	if code != 0 {
		t.Fatalf("clean -json run exited %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}
