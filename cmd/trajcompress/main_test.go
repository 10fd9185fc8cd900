package main

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compress"
)

// trajcompress -h lists exactly the algorithms of the compress table: the
// flag text is generated from the table, and this runs the real binary so a
// hand-written list cannot creep back in.
func TestHelpListsEveryAlgorithm(t *testing.T) {
	out, _ := exec.Command("go", "run", ".", "-h").CombinedOutput() // -h exits non-zero by design
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^\s+([a-z]+):[A-Z]`).FindAllStringSubmatch(string(out), -1) {
		listed = append(listed, m[1])
	}
	if got, want := strings.Join(listed, " "), strings.Join(compress.Names(false), " "); got != want {
		t.Errorf("trajcompress -h lists algorithms %q, want %q\n%s", got, want, out)
	}
}
