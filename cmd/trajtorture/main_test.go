package main

import (
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trajectory"
	"repro/internal/wal"
)

// A failing cycle must still stop its child: the run returns the violation
// only after the deferred kill, so the address no longer accepts
// connections. The cycle is made to fail by a log that holds an object the
// harness never sent.
func TestFailingCycleLeavesNoChildListening(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs trajserver")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "trajserver")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/trajserver").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	walPath := filepath.Join(dir, "torture.wal")
	l, err := wal.Open(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{ID: "intruder", Sample: trajectory.S(0, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}

	err = run([]string{"-bin", bin, "-addr", addr, "-wal", walPath, "-cycles", "1", "-appends", "10"})
	if err == nil || !strings.Contains(err.Error(), "RECOVERY VIOLATION") || !strings.Contains(err.Error(), "intruder") {
		t.Fatalf("run = %v, want a recovery violation naming the intruder", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		_ = c.Close() // the failure is reported below
		t.Fatalf("%s still accepts connections after the failed run", addr)
	}
}
