package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// fastOpts returns client options tuned for tests: tight timeouts, tiny
// backoff, isolated metrics.
func fastOpts(reg *metrics.Registry) ClientOptions {
	return ClientOptions{
		DialTimeout: time.Second,
		IOTimeout:   500 * time.Millisecond,
		MaxRetries:  3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
		Metrics:     reg,
	}
}

// An accept-then-silent listener: the pathological peer that accepts the
// TCP handshake and then never speaks. The deadline, not the test timeout,
// must end the round trip.
func TestClientIOTimeoutAgainstSilentServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing
		}
	}()
	defer func() { l.Close(); <-done }()

	opts := fastOpts(metrics.NewRegistry())
	opts.IOTimeout = 100 * time.Millisecond
	opts.MaxRetries = 0
	c, err := DialOptions(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline did not bound the round trip: took %v", elapsed)
	}
}

// The client must survive a full server restart: idempotent commands
// reconnect and retry transparently, and the retry/reconnect counters
// record that it happened.
func TestClientReconnectsAcrossServerRestart(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := New(store.New(store.Options{Metrics: metrics.NewRegistry()}))
	srv.UseRegistry(metrics.NewRegistry())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	reg := metrics.NewRegistry()
	c, err := DialOptions(addr, fastOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Kill the server, wait until the port is actually free, restart it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := New(store.New(store.Options{Metrics: metrics.NewRegistry()}))
	srv2.UseRegistry(metrics.NewRegistry())
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(l2) }()
	defer func() {
		srv2.Close()
		<-done2
	}()

	// The old connection is dead; an idempotent command heals in place.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping across restart: %v", err)
	}
	var retries, reconnects float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "client_retries_total":
			retries = m.Value
		case "client_reconnects_total":
			reconnects = m.Value
		}
	}
	if retries < 1 {
		t.Errorf("client_retries_total = %v, want >= 1", retries)
	}
	if reconnects < 1 {
		t.Errorf("client_reconnects_total = %v, want >= 1", reconnects)
	}
}

// APPEND must never be blindly re-sent: a transport failure surfaces to the
// caller, while the next call may freely redial (nothing sent yet). A
// RemoteError is final even for idempotent commands.
func TestClientAppendNotRetried(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := New(store.New(store.Options{Metrics: metrics.NewRegistry()}))
	srv.UseRegistry(metrics.NewRegistry())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	reg := metrics.NewRegistry()
	c, err := DialOptions(addr, fastOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Append("car", trajectory.S(0, 0, 0)); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	<-done
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := New(store.New(store.Options{Metrics: metrics.NewRegistry()}))
	srv2.UseRegistry(metrics.NewRegistry())
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(l2) }()
	defer func() {
		srv2.Close()
		<-done2
	}()

	// First append over the dead connection: ambiguous outcome, must error
	// rather than blind-resend.
	if err := c.Append("car", trajectory.S(1, 0, 0)); err == nil {
		t.Fatal("append over a dead connection reported success")
	}
	// Next append: nothing in flight, so the client may redial and send.
	if err := c.Append("car", trajectory.S(2, 0, 0)); err != nil {
		t.Fatalf("append after redial: %v", err)
	}

	// Semantic rejection is a RemoteError and is never retried.
	before := counterVal(reg, "client_retries_total")
	err = c.Append("car", trajectory.S(2, 0, 0)) // duplicate timestamp
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("duplicate append error = %v, want RemoteError", err)
	}
	if after := counterVal(reg, "client_retries_total"); after != before {
		t.Errorf("RemoteError consumed retries: %v -> %v", before, after)
	}
}

func counterVal(reg *metrics.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// Over the MaxConns cap, connections are shed with a polite ERR line —
// counted in server_sheds_total — and established sessions keep working.
func TestServerMaxConnsShed(t *testing.T) {
	reg := metrics.NewRegistry()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store.New(store.Options{Metrics: reg}))
	srv.UseRegistry(reg)
	srv.MaxConns = 1
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()

	opts := fastOpts(metrics.NewRegistry())
	opts.MaxRetries = 0
	c, err := DialOptions(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Second connection: over the cap. It must read the busy line, then EOF.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	n, _ := raw.Read(buf)
	if got := strings.TrimSpace(string(buf[:n])); !strings.HasPrefix(got, "ERR busy") {
		t.Errorf("shed connection read %q, want an ERR busy line", got)
	}
	if got := counterVal(reg, "server_sheds_total"); got != 1 {
		t.Errorf("server_sheds_total = %v, want 1", got)
	}
	// The established session was not degraded.
	if err := c.Ping(); err != nil {
		t.Errorf("established session broken by shed: %v", err)
	}

	// Freeing the slot readmits new connections.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c2, err := DialOptions(l.Addr().String(), opts)
		if err == nil {
			if err := c2.Ping(); err == nil {
				c2.Close()
				break
			}
			c2.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after client close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Shutdown drains: the listener closes, idle and streaming connections end,
// and the call returns well before the context deadline.
func TestServerShutdownDrains(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store.New(store.Options{Metrics: metrics.NewRegistry()}))
	srv.UseRegistry(metrics.NewRegistry())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// One idle command connection, one live subscriber.
	idle, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	sub, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Write([]byte("SUBSCRIBE *\n")); err != nil {
		t.Fatal(err)
	}
	okBuf := make([]byte, 64)
	sub.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := sub.Read(okBuf); err != nil {
		t.Fatalf("subscribe handshake: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("drain took %v — idle connections did not unpark", elapsed)
	}
	if err := <-done; err != ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), 500*time.Millisecond); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// The four resilience counters — fault_hits_total, client_retries_total,
// client_reconnects_total, server_sheds_total — must appear in both metrics
// expositions (the TCP METRICS command and the HTTP handler) when client,
// server, and durable store share one registry.
func TestResilienceCountersInBothExpositions(t *testing.T) {
	reg := metrics.NewRegistry()
	d, err := wal.OpenDurable(filepath.Join(t.TempDir(), "trips.wal"), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	srv.UseRegistry(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()

	c, err := DialOptions(l.Addr().String(), fastOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Append("car", trajectory.S(0, 0, 0)); err != nil {
		t.Fatal(err)
	}

	tcpText, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	metrics.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	httpText := rec.Body.String()

	for _, name := range []string{
		"fault_hits_total",
		"client_retries_total",
		"client_reconnects_total",
		"server_sheds_total",
		"server_subscribers_active",
		`server_subscribe_policy_drops_total{policy="drop-newest"}`,
		`server_subscribe_policy_drops_total{policy="drop-oldest"}`,
		`server_subscribe_policy_drops_total{policy="disconnect"}`,
	} {
		if !strings.Contains(tcpText, name) {
			t.Errorf("TCP METRICS exposition missing %s", name)
		}
		if !strings.Contains(httpText, name) {
			t.Errorf("HTTP exposition missing %s", name)
		}
	}
}

// A reply larger than the connection's write buffer spills to the socket
// before the handler's flush. On a connection that sat idle for longer than
// WriteTimeout that spill used to run under the previous flush's expired
// deadline and cut the reply off; the deadline must be armed where the
// bytes leave.
func TestLargeReplyAfterIdleLongerThanWriteTimeout(t *testing.T) {
	const objects = 400 // ≈ 9 KiB of STATS, over the 4 KiB buffer
	st := store.New(store.Options{Metrics: metrics.NewRegistry()})
	for i := 0; i < objects; i++ {
		if err := st.Append("vehicle-"+strconv.Itoa(i), trajectory.S(1, float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.WriteTimeout = 50 * time.Millisecond
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	// The first reply arms (and, at the parent commit, leaves behind) a
	// write deadline 50 ms out.
	if _, err := conn.Write([]byte("PING\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || line != "OK pong\n" {
		t.Fatalf("PING: %q, %v", line, err)
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := conn.Write([]byte("STATS\n")); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("STATS reply cut off after %d of %d object lines: %v", got, objects, err)
		}
		if line == "END\n" {
			break
		}
		if strings.HasPrefix(line, "obj ") {
			got++
		}
	}
	if got != objects {
		t.Errorf("STATS listed %d objects, want %d", got, objects)
	}
}
