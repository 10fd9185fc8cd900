package main

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compress"
)

// trajserver -h lists exactly the algorithms of the compress table that can
// run online: the flag text is generated from the table, and this runs the
// real binary so a hand-written list cannot creep back in.
func TestHelpListsOnlineAlgorithms(t *testing.T) {
	out, _ := exec.Command("go", "run", ".", "-h").CombinedOutput() // -h exits non-zero by design
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^\s+([a-z]+):[A-Z]`).FindAllStringSubmatch(string(out), -1) {
		listed = append(listed, m[1])
	}
	if got, want := strings.Join(listed, " "), strings.Join(compress.Names(true), " "); got != want {
		t.Errorf("trajserver -h lists algorithms %q, want %q\n%s", got, want, out)
	}
}
