package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/server"
	"repro/internal/trajectory"
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

// The built binary with -http serves the same counters over TCP METRICS and
// HTTP /metrics, serves pprof, and drains with exit status 0 on SIGTERM. It
// is the only test that starts the process with -http.
func TestHTTPMetricsAgreeWithWireAndCleanDrain(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "trajserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// One goroutine owns the log: it hands over the two listen addresses,
	// keeps draining so the child never blocks on a full pipe, then reaps it.
	var waitErr error // valid once exited is closed
	exited := make(chan struct{})
	addrs := make(chan string, 2)
	defer func() { // on a failure path the child is still running: never leave it behind
		_ = cmd.Process.Kill()
		<-exited
	}()
	go func() {
		defer close(exited)
		listen := regexp.MustCompile(`(?:listening on |metrics on http://)([0-9.]+:[0-9]+)`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listen.FindStringSubmatch(sc.Text()); m != nil {
				addrs <- m[1]
			}
		}
		waitErr = cmd.Wait()
	}()
	var tcp, web string
	for _, dst := range []*string{&tcp, &web} {
		select {
		case *dst = <-addrs:
		case <-exited:
			t.Fatalf("server exited before listening: %v", waitErr)
		case <-time.After(10 * time.Second):
			t.Fatal("no listen line within 10s")
		}
	}

	c, err := server.Dial(tcp) // default timeouts: 5s dial, 10s per request
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Append("a", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	hc := http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		t.Helper()
		resp, err := hc.Get("http://" + web + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	for name, text := range map[string]string{"METRICS": wire, "GET /metrics": get("/metrics")} {
		if !strings.Contains(text, "\nstore_appends_total 3\n") {
			t.Errorf("%s lacks store_appends_total 3:\n%s", name, text)
		}
	}
	get("/debug/pprof/")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Errorf("SIGTERM drain: %v, want exit status 0", waitErr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server still running 15s after SIGTERM")
	}
}
