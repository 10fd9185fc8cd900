package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// The file pipeline end to end, with the real binaries: trajgen writes a
// CSV, trajcompress shrinks it, trajreplay feeds it to a server, and the
// server then holds every object and every fix of the file.
func TestGenerateCompressReplay(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	dir := t.TempDir()
	run := func(name string, args ...string) (stdout []byte) {
		t.Helper()
		cmd := exec.CommandContext(ctx, name, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, stderr.Bytes())
		}
		return stdout
	}
	run("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/trajgen", "repro/cmd/trajcompress", "repro/cmd/trajreplay")

	trips := filepath.Join(dir, "trips.csv")
	run(filepath.Join(dir, "trajgen"), "-n", "3", "-duration", "300", "-format", "csv", "-o", trips)
	csv, err := os.ReadFile(trips)
	if err != nil {
		t.Fatal(err)
	}
	rows := bytes.Count(csv, []byte("\n")) - 1 // header line

	kept := bytes.Count(run(filepath.Join(dir, "trajcompress"), "-alg", "tdtr:30", "-in", trips), []byte("\n")) - 1
	if kept < 3*2 || kept >= rows {
		t.Errorf("trajcompress -alg tdtr:30 kept %d of %d points", kept, rows)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store.New(store.Options{}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-served; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	run(filepath.Join(dir, "trajreplay"), "-addr", l.Addr().String(), trips)
	c, err := server.Dial(l.Addr().String()) // 5 s dial and 10 s round-trip timeouts by default
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 3 || st.RawPoints != rows {
		t.Errorf("after the replay STATS shows objects=%d raw=%d, want 3 and %d", st.Objects, st.RawPoints, rows)
	}
}
