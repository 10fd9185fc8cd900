// Command trajlint runs the repository's custom static-analysis suite
// (internal/lint) over every package in the module, _test.go files
// included: layering, floatcmp, floatstep, nanguard, errcheck and goroleak.
// Only goroleak binds test files; the other rules exempt them.
//
// Usage:
//
//	trajlint [-json] [./... | dir ...]
//
//	-json   emit findings as a JSON array instead of text
//
// -tests is accepted and ignored, since test files are always loaded:
// bench/README.md's lint command line still passes it.
//
// With no arguments (or "./...") the whole module is linted; directory
// arguments restrict which findings are reported (the whole module is
// still loaded, since the analyzers need cross-package types).
//
// Exit status: 0 when clean, 1 when findings are reported, 2 on usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajlint:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, wd))
}

// run is main with its environment injected, so the CLI (flag parsing,
// exit codes, output shapes) is testable in-process.
func run(args []string, stdout, stderr io.Writer, workdir string) int {
	fs := flag.NewFlagSet("trajlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	fs.Bool("tests", true, "ignored: _test.go files are always loaded")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, err := findModuleRoot(workdir)
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}
	m, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}

	cfg := lint.DefaultConfig()
	if m.Path != "repro" {
		// The layering table describes this repository's internal/ tree;
		// every row of it is stale in another module (the test fixtures),
		// which gets the other analyzers only.
		cfg.LayerRules = nil
	}
	diags, err := filterByArgs(lint.Run(m, cfg), root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "trajlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "trajlint: %d finding(s) in %d package(s)\n", len(diags), len(m.Packages))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks up from workdir to the first go.mod.
func findModuleRoot(workdir string) (string, error) {
	dir, err := filepath.Abs(workdir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// filterByArgs restricts findings to the given directories. "./...", "...",
// or no arguments mean the whole module. An argument that does not exist or
// lies outside the module is an error — a typo'd path must not read as a
// clean run.
func filterByArgs(diags []lint.Diagnostic, root string, args []string) ([]lint.Diagnostic, error) {
	var prefixes []string
	for _, a := range args {
		if a == "./..." || a == "..." || a == "." {
			return diags, nil
		}
		dir := strings.TrimSuffix(a, "/...")
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, fmt.Errorf("argument %q: %v", a, err)
		}
		if _, err := os.Stat(abs); err != nil {
			return nil, fmt.Errorf("argument %q: %v", a, err)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("argument %q is outside the module rooted at %s", a, root)
		}
		if rel == "." {
			return diags, nil
		}
		prefixes = append(prefixes, filepath.ToSlash(rel))
	}
	if len(prefixes) == 0 {
		return diags, nil
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		for _, p := range prefixes {
			if d.File == p || strings.HasPrefix(d.File, p+"/") {
				out = append(out, d)
				break
			}
		}
	}
	return out, nil
}
