// Command trajlint runs the repository's custom static-analysis suite
// (internal/lint) over every package in the module: layering, floatcmp,
// floatstep, nanguard, errcheck, lockcopy, goroleak, mutexguard, lockorder
// and atomicmix.
//
// Usage:
//
//	trajlint [flags] [./... | dir ...]
//
//	-json             emit findings as a JSON array instead of text
//	-tests            also load _test.go files and run the concurrency
//	                  analyzers (lockcopy, goroleak, mutexguard, lockorder,
//	                  atomicmix) over them; the float/layering/errcheck
//	                  rules still exempt tests
//	-allowlist file   suppression file of "analyzer file:line" entries
//	                  (default .trajlint.allow at the module root, if present)
//	-fix-allowlist    write every current finding into the allowlist file so
//	                  the gate passes, then exit 0; prefer in-source
//	                  //lint:allow annotations for anything long-lived.
//	                  Combined with -prune-allowlist it instead rewrites the
//	                  file with the stale entries removed.
//	-prune-allowlist  report allowlist entries that no longer match any
//	                  finding (exit 1 if any are stale); with -fix-allowlist
//	                  the file is rewritten without them
//
// With no arguments (or "./...") the whole module is linted; directory
// arguments restrict which findings are reported (the whole module is
// still loaded, since the analyzers need cross-package types).
//
// Exit status: 0 when clean, 1 when findings (or stale allowlist entries)
// are reported, 2 on usage or load errors.
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
	var (
		jsonOut    = fs.Bool("json", false, "emit findings as JSON")
		withTests  = fs.Bool("tests", false, "run the concurrency analyzers over _test.go files too")
		allowPath  = fs.String("allowlist", "", "allowlist file (default: .trajlint.allow at the module root, if present)")
		fixAllow   = fs.Bool("fix-allowlist", false, "write current findings to the allowlist file and exit 0 (with -prune-allowlist: rewrite it without stale entries)")
		pruneAllow = fs.Bool("prune-allowlist", false, "report (and with -fix-allowlist remove) allowlist entries matching no finding")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, err := findModuleRoot(workdir)
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}
	load := lint.Load
	if *withTests {
		load = lint.LoadWithTests
	}
	m, err := load(root)
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
	path := *allowPath
	if path == "" {
		path = filepath.Join(root, ".trajlint.allow")
	}
	allowData, allowErr := os.ReadFile(path)
	if allowErr == nil {
		cfg.Allowlist, err = lint.ParseAllowlist(string(allowData))
		if err != nil {
			fmt.Fprintln(stderr, "trajlint:", err)
			return 2
		}
	} else if *allowPath != "" {
		fmt.Fprintln(stderr, "trajlint:", allowErr)
		return 2
	}

	if *pruneAllow {
		if allowErr != nil {
			fmt.Fprintln(stderr, "trajlint: no allowlist at", path)
			return 0
		}
		// Stale detection needs the unsuppressed finding set: an entry is
		// live only if some finding would match it.
		bare := *cfg
		bare.Allowlist = nil
		kept, stale, err := lint.PruneAllowlist(string(allowData), lint.Keys(lint.Run(m, &bare)))
		if err != nil {
			fmt.Fprintln(stderr, "trajlint:", err)
			return 2
		}
		if len(stale) == 0 {
			fmt.Fprintln(stderr, "trajlint: allowlist is clean")
			return 0
		}
		for _, s := range stale {
			fmt.Fprintln(stdout, "stale:", s)
		}
		if *fixAllow {
			if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
				fmt.Fprintln(stderr, "trajlint:", err)
				return 2
			}
			fmt.Fprintf(stderr, "trajlint: removed %d stale entrie(s) from %s\n", len(stale), path)
			return 0
		}
		fmt.Fprintf(stderr, "trajlint: %d stale allowlist entrie(s); rerun with -fix-allowlist to remove\n", len(stale))
		return 1
	}

	diags, err := filterByArgs(lint.Run(m, cfg), root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}

	if *fixAllow {
		if len(diags) == 0 {
			fmt.Fprintln(stderr, "trajlint: no findings; allowlist not written")
			return 0
		}
		if err := os.WriteFile(path, []byte(lint.FormatAllowlist(diags)), 0o644); err != nil {
			fmt.Fprintln(stderr, "trajlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "trajlint: wrote %d suppressions to %s\n", len(diags), path)
		return 0
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
