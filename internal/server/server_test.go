package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// startServer runs a server on a random loopback port and returns its
// address and a shutdown func.
func startServer(t *testing.T, st *store.Store) (addr string, shutdown func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return l.Addr().String(), func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
}

func TestClientServerBasics(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Append("bus-7", trajectory.S(float64(i*10), float64(i*100), 0)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	pos, err := c.PositionAt("bus-7", 45)
	if err != nil {
		t.Fatal(err)
	}
	if !pos.AlmostEqual(geo.Pt(450, 0), 1e-9) {
		t.Errorf("PositionAt = %v, want (450, 0)", pos)
	}
	snap, err := c.Snapshot("bus-7")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 10 {
		t.Errorf("snapshot has %d points, want 10", snap.Len())
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("snapshot invalid: %v", err)
	}
	ids, err := c.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "bus-7" {
		t.Errorf("IDs = %v", ids)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 1 || stats.RawPoints != 10 || stats.RetainedPoints != 10 {
		t.Errorf("Stats = %d, %d, %d", stats.Objects, stats.RawPoints, stats.RetainedPoints)
	}
	if stats.PointsPerObject["bus-7"] != 10 {
		t.Errorf("PointsPerObject = %v, want bus-7:10", stats.PointsPerObject)
	}
	if stats.UptimeSeconds <= 0 {
		t.Errorf("UptimeSeconds = %v, want > 0", stats.UptimeSeconds)
	}
}

func TestServerQuery(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{CellSize: 100}))
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_ = c.Append("near", trajectory.S(0, 0, 0))
	_ = c.Append("near", trajectory.S(10, 100, 0))
	_ = c.Append("far", trajectory.S(0, 9000, 9000))
	_ = c.Append("far", trajectory.S(10, 9100, 9000))

	got, err := c.Query(geo.Rect{Min: geo.Pt(-10, -10), Max: geo.Pt(150, 10)}, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "near" {
		t.Errorf("Query = %v, want [near]", got)
	}
}

// An object known by one fix answers QUERY and QUERYTOL like it answers
// QUERYRANGE, NEAREST and POSITION, with and without on-ingest compression.
func TestServerQuerySeesOneFixObject(t *testing.T) {
	for name, opts := range map[string]store.Options{
		"none":     {},
		"opwtr:30": {NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) }},
	} {
		addr, shutdown := startServer(t, store.New(opts))
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		fmt.Fprint(conn, "APPEND b 0 5 5\nQUERY 0 0 10 10 0 1\nQUERYTOL 20 20 30 30 0 1 16\nQUERYRANGE 0 0 10 10 0 1\nNEAREST 0 0 0 1\nPOSITION b 0\n")
		for _, want := range []string{"OK", "b", "END", "b", "END", "b 0 5 5", "END", "b 5 5 ", "END", "OK 5 5"} {
			if got, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(got, want) {
				t.Fatalf("%s: reply %q, %v; want %q", name, got, err, want)
			}
		}
		conn.Close()
		shutdown()
	}
}

func TestServerQueryTolAndEvict(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{CellSize: 100}))
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_ = c.Append("a", trajectory.S(0, 0, 0))
	_ = c.Append("a", trajectory.S(10, 100, 0))
	_ = c.Append("a", trajectory.S(20, 200, 0))

	// A rectangle 30 m off the path misses plainly but hits with eps=50.
	rect := geo.Rect{Min: geo.Pt(40, 35), Max: geo.Pt(60, 45)}
	plain, err := c.Query(rect, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 0 {
		t.Errorf("plain query unexpectedly hit: %v", plain)
	}
	tol, err := c.QueryWithTolerance(rect, 0, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(tol) != 1 || tol[0] != "a" {
		t.Errorf("tolerance query = %v, want [a]", tol)
	}

	n, err := c.EvictBefore(15)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("EvictBefore removed nothing")
	}
	snap, err := c.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap[0].T < 15 {
		t.Errorf("evicted sample survived: %v", snap[0])
	}
}

func TestServerErrors(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PositionAt("ghost", 0); err == nil {
		t.Error("unknown object did not error")
	}
	if _, err := c.Snapshot("ghost"); err == nil {
		t.Error("unknown snapshot did not error")
	}
	if err := c.Append("bad id", trajectory.S(0, 0, 0)); err == nil {
		t.Error("whitespace id accepted client-side")
	}
	_ = c.Append("a", trajectory.S(5, 0, 0))
	if err := c.Append("a", trajectory.S(5, 0, 0)); err == nil {
		t.Error("duplicate timestamp accepted")
	}
	// The connection survives errors.
	if err := c.Ping(); err != nil {
		t.Errorf("ping after errors: %v", err)
	}
}

// Raw-protocol test: malformed lines get ERR responses without killing the
// connection.
func TestServerProtocolRobustness(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(line string) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response to %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}

	cases := []string{
		"BOGUS",
		"APPEND onlyid",
		"APPEND id notanumber 0 0",
		"POSITION",
		"QUERY 1 2 3",
		"QUERY 10 10 0 0 0 1", // inverted rectangle
		"QUERY 0 0 1 1 5 1",   // inverted time window
	}
	for _, line := range cases {
		if resp := send(line); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q: response %q, want ERR", line, resp)
		}
	}
	if resp := send("PING"); resp != "OK pong" {
		t.Errorf("connection unusable after errors: %q", resp)
	}
	if resp := send("QUIT"); resp != "OK bye" {
		t.Errorf("QUIT response %q", resp)
	}
}

// Coordinates a client chooses must not set the server's work: a fix 2 000 km
// from the last one and a query rectangle of 400 million grid cells are both
// answered, and a second connection served, promptly. The bound is generous
// for a loaded -race runner; without the fix the APPEND takes about 3 s and
// the QUERY about half a minute, so it still fails there.
func TestServerHugeCoordinatesAnswerPromptly(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()
	deadline := time.Now().Add(5 * time.Second)
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(deadline); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	conn, r := dial()
	defer conn.Close()
	fmt.Fprint(conn, "APPEND a 0 0 0\nAPPEND a 1 2e6 2e6\nQUERY -1e7 -1e7 1e7 1e7 0 10\n")
	for _, want := range []string{"OK", "OK", "a", "END"} {
		if got, err := r.ReadString('\n'); err != nil || strings.TrimSpace(got) != want {
			t.Fatalf("reply %q, %v; want %q", got, err, want)
		}
	}
	other, r2 := dial()
	defer other.Close()
	fmt.Fprint(other, "PING\n")
	if got, err := r2.ReadString('\n'); err != nil || strings.TrimSpace(got) != "OK pong" {
		t.Fatalf("PING on a second connection: %q, %v", got, err)
	}
}

func TestServerSubscribe(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	// Subscriber connection (raw protocol).
	subConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	subR := bufio.NewReader(subConn)
	fmt.Fprintln(subConn, "SUBSCRIBE bus-1")
	if resp, _ := subR.ReadString('\n'); !strings.HasPrefix(resp, "OK subscribed") {
		t.Fatalf("subscribe response %q", resp)
	}

	// Publisher connection.
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Append("bus-1", trajectory.S(10, 100, 200)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Append("bus-2", trajectory.S(10, 0, 0)); err != nil {
		t.Fatal(err) // different object: must NOT reach the subscriber
	}
	if err := pub.Append("bus-1", trajectory.S(20, 110, 210)); err != nil {
		t.Fatal(err)
	}

	subConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line1, err := subR.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	line2, err := subR.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line1) != "POS bus-1 10 100 200" {
		t.Errorf("first update %q", line1)
	}
	if strings.TrimSpace(line2) != "POS bus-1 20 110 210" {
		t.Errorf("second update %q", line2)
	}
}

// A SUBSCRIBE with a stream-algorithm spec must deliver only the retained
// points: the compressor runs per object inside the publish path.
func TestServerSubscribeCompressed(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	subConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	subR := bufio.NewReader(subConn)
	fmt.Fprintln(subConn, "SUBSCRIBE bus-1 operb:10")
	if resp, _ := subR.ReadString('\n'); !strings.HasPrefix(resp, "OK subscribed") {
		t.Fatalf("subscribe response %q", resp)
	}

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// A straight run: OPERB retains only the first point immediately...
	for i := 0; i < 4; i++ {
		if err := pub.Append("bus-1", trajectory.S(float64(i), float64(i*10), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// ...until a sharp corner forces a cut, which retains the corner's
	// predecessor (t=3). The intermediates t=1, t=2 must never arrive.
	if err := pub.Append("bus-1", trajectory.S(4, 30, 1000)); err != nil {
		t.Fatal(err)
	}

	subConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line1, err := subR.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	line2, err := subR.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line1) != "POS bus-1 0 0 0" {
		t.Errorf("first update %q, want the anchor point", line1)
	}
	if strings.TrimSpace(line2) != "POS bus-1 3 30 0" {
		t.Errorf("second update %q, want the pre-corner cut point", line2)
	}
}

// A malformed spec must be refused at SUBSCRIBE time, leaving the
// connection usable.
func TestServerSubscribeBadSpec(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for _, line := range []string{"SUBSCRIBE bus-1 bogus:1", "SUBSCRIBE bus-1 operb:-5", "SUBSCRIBE a b c"} {
		fmt.Fprintln(conn, line)
		if resp, _ := r.ReadString('\n'); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q: response %q, want ERR", line, resp)
		}
	}
	fmt.Fprintln(conn, "PING")
	if resp, _ := r.ReadString('\n'); strings.TrimSpace(resp) != "OK pong" {
		t.Fatalf("connection unusable after bad SUBSCRIBE: %q", resp)
	}
}

func TestServerSubscribeWildcard(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()

	subConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	subR := bufio.NewReader(subConn)
	fmt.Fprintln(subConn, "SUBSCRIBE *")
	if resp, _ := subR.ReadString('\n'); !strings.HasPrefix(resp, "OK subscribed") {
		t.Fatalf("subscribe response %q", resp)
	}

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	_ = pub.Append("a", trajectory.S(1, 0, 0))
	_ = pub.Append("b", trajectory.S(2, 0, 0))

	subConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		line, err := subR.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		got[strings.Fields(line)[1]] = true
	}
	if !got["a"] || !got["b"] {
		t.Errorf("wildcard missed updates: %v", got)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store.New(store.Options{}))
	srv.IdleTimeout = 50 * time.Millisecond
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
	// Stay silent past the idle timeout: the server must close the
	// connection (read returns EOF/reset).
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection not closed")
	}
}

// The server works over a durable (WAL-backed) backend, and the data
// survives a full server+store restart.
func TestServerDurableBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	opts := store.Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 40}) },
	}

	session := func(appendData bool) int {
		d, err := wal.OpenDurable(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := New(d)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if appendData {
			for i := 0; i < 40; i++ {
				if err := c.Append("tram", trajectory.S(float64(i*10), float64(i*120), 0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap, err := c.Snapshot("tram")
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return snap.Len()
	}

	wrote := session(true)
	if wrote < 2 {
		t.Fatalf("first session stored only %d points", wrote)
	}
	recovered := session(false)
	if recovered != wrote {
		t.Errorf("recovered %d points after restart, want %d", recovered, wrote)
	}
}

func TestServerWithCompressionAndConcurrency(t *testing.T) {
	st := store.New(store.Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) },
	})
	addr, shutdown := startServer(t, st)
	defer shutdown()

	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			id := fmt.Sprintf("veh-%d", n)
			for k := 0; k < 60; k++ {
				s := trajectory.S(float64(k*10), float64(k*50+n), float64(n*100))
				if err := c.Append(id, s); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != clients || stats.RawPoints != clients*60 {
		t.Errorf("Stats objects=%d raw=%d, want %d and %d", stats.Objects, stats.RawPoints, clients, clients*60)
	}
}

func TestServerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	st := store.New(store.Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 25}) },
		Metrics:       reg,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.UseRegistry(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		<-done
	}()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		if err := c.Append("tram-1", trajectory.S(float64(i), float64(i*10), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.PositionAt("tram-1", 5); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE server_commands_total counter",
		`server_commands_total{cmd="APPEND"} 20`,
		`server_commands_total{cmd="POSITION"} 1`,
		"server_connections_active 1",
		"server_subscribers_active 0",
		`server_subscribe_policy_drops_total{policy="drop-newest"} 0`,
		`server_subscribe_policy_drops_total{policy="drop-oldest"} 0`,
		`server_subscribe_policy_drops_total{policy="disconnect"} 0`,
		"store_appends_total 20",
		"stream_points_in_total 20",
		`server_command_seconds_count{cmd="APPEND"} 20`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("METRICS missing %q in:\n%s", want, text)
		}
	}

	// The counters behind the exposition are the registry's: the straight-line
	// trajectory compresses, and the live ratio is visible in the snapshot.
	for _, m := range reg.Snapshot() {
		if m.Name == "stream_points_in_total" && m.Value != 20 {
			t.Errorf("stream_points_in_total = %v, want 20", m.Value)
		}
	}
}
