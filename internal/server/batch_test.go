package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

func TestClientAppendBatch(t *testing.T) {
	st := store.New(store.Options{})
	addr, shutdown := startServer(t, st)
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := make([]trajectory.Sample, 64)
	for i := range batch {
		batch[i] = trajectory.S(float64(i), float64(i*2), float64(i*3))
	}
	if err := c.AppendBatch("veh-1", batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	snap, err := c.Snapshot("veh-1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != len(batch) {
		t.Fatalf("snapshot has %d points, want %d", snap.Len(), len(batch))
	}
	for i, s := range snap {
		if s != batch[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, s, batch[i])
		}
	}
	// Batch equals singles: the store state must be what 64 APPENDs build.
	for _, s := range batch {
		if err := c.Append("veh-singles", s); err != nil {
			t.Fatal(err)
		}
	}
	single, err := c.Snapshot("veh-singles")
	if err != nil {
		t.Fatal(err)
	}
	if single.Len() != snap.Len() {
		t.Fatalf("batch stored %d points, singles stored %d", snap.Len(), single.Len())
	}

	// Empty batch is a no-op, not a protocol exchange.
	if err := c.AppendBatch("veh-1", nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
}

// rawConn speaks the wire protocol directly for the cases the Client
// cannot produce.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn, bufio.NewReader(conn)
}

func TestMAppendWireErrors(t *testing.T) {
	st := store.New(store.Options{})
	addr, shutdown := startServer(t, st)
	defer shutdown()

	conn, br := rawConn(t, addr)

	readReply := func() string {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		return strings.TrimSpace(line)
	}

	// Usage error: no data lines follow, the connection stays usable.
	fmt.Fprintf(conn, "MAPPEND veh-1\n")
	if got := readReply(); !strings.HasPrefix(got, "ERR usage") {
		t.Fatalf("MAPPEND with 1 arg → %q, want usage error", got)
	}
	// Batch size out of range.
	fmt.Fprintf(conn, "MAPPEND veh-1 0\n")
	if got := readReply(); !strings.HasPrefix(got, "ERR batch size") {
		t.Fatalf("MAPPEND 0 → %q, want batch-size error", got)
	}
	// A malformed data line rejects the whole batch, but all n lines are
	// consumed: the next command must still parse as a command.
	fmt.Fprintf(conn, "MAPPEND veh-1 3\n1 1 1\nnot a sample\n3 3 3\n")
	if got := readReply(); !strings.HasPrefix(got, "ERR batch sample 2") {
		t.Fatalf("malformed batch → %q, want sample-2 error", got)
	}
	fmt.Fprintf(conn, "PING\n")
	if got := readReply(); got != "OK pong" {
		t.Fatalf("PING after rejected batch → %q — connection desynchronized", got)
	}
	if snap, ok := st.Snapshot("veh-1"); ok && snap.Len() > 0 {
		t.Fatalf("rejected batch still stored %d samples", snap.Len())
	}

	// Out-of-order mid-batch: the prefix before the bad sample sticks.
	fmt.Fprintf(conn, "MAPPEND veh-2 3\n1 1 1\n2 2 2\n1.5 9 9\n")
	if got := readReply(); !strings.HasPrefix(got, "ERR applied=2") {
		t.Fatalf("out-of-order batch → %q, want ERR applied=2", got)
	}
	snap, _ := st.Snapshot("veh-2")
	if snap.Len() != 2 || snap[1].T != 2 {
		t.Fatalf("after partial batch: %+v, want intact 2-sample prefix", snap)
	}
}

// TestPipelinedCommands sends a whole burst of commands in one write and
// only then reads: every reply must come back, in order — the deferred
// flush must never deadlock a pipelining client.
func TestPipelinedCommands(t *testing.T) {
	reg := metrics.NewRegistry()
	st := store.New(store.Options{Metrics: reg})
	addr, shutdown := startServer(t, st)
	defer shutdown()

	conn, br := rawConn(t, addr)

	const n = 100
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "APPEND veh-p %d %d 0\n", i, i)
	}
	b.WriteString("PING\n")
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if strings.TrimSpace(line) != "OK" {
			t.Fatalf("reply %d = %q, want OK", i, strings.TrimSpace(line))
		}
	}
	if line, _ := br.ReadString('\n'); strings.TrimSpace(line) != "OK pong" {
		t.Fatalf("final reply = %q, want OK pong", strings.TrimSpace(line))
	}
	snap, _ := st.Snapshot("veh-p")
	if snap.Len() != n {
		t.Fatalf("stored %d samples, want %d", snap.Len(), n)
	}
}

// A pipelined stream of MAPPEND batches sent in one write — the shape of
// the benchmark's ingest_batch workload.
func TestPipelinedBatches(t *testing.T) {
	st := store.New(store.Options{})
	addr, shutdown := startServer(t, st)
	defer shutdown()

	conn, br := rawConn(t, addr)
	const batches, per = 20, 32
	var b strings.Builder
	tick := 0
	for k := 0; k < batches; k++ {
		fmt.Fprintf(&b, "MAPPEND veh-b %d\n", per)
		for i := 0; i < per; i++ {
			fmt.Fprintf(&b, "%d %d %d\n", tick, tick, tick)
			tick++
		}
	}
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < batches; k++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("batch reply %d: %v", k, err)
		}
		if want := fmt.Sprintf("OK appended=%d", per); strings.TrimSpace(line) != want {
			t.Fatalf("batch reply %d = %q, want %q", k, strings.TrimSpace(line), want)
		}
	}
	snap, _ := st.Snapshot("veh-b")
	if snap.Len() != batches*per {
		t.Fatalf("stored %d samples, want %d", snap.Len(), batches*per)
	}
}

func TestBatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	st := store.New(store.Options{Metrics: reg})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	srv.UseRegistry(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() { _ = srv.Close(); <-done }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := 0; k < 3; k++ {
		batch := make([]trajectory.Sample, 16)
		for i := range batch {
			batch[i] = trajectory.S(float64(k*16+i), 0, 0)
		}
		if err := c.AppendBatch("veh-m", batch); err != nil {
			t.Fatal(err)
		}
	}
	var sawCount, sawSize bool
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "server_batch_appends_total":
			sawCount = true
			if m.Value != 3 {
				t.Errorf("server_batch_appends_total = %v, want 3", m.Value)
			}
		case "server_batch_append_size":
			sawSize = true
			if m.Count != 3 || m.Sum != 48 {
				t.Errorf("batch size histogram count=%d sum=%v, want 3 batches of 16", m.Count, m.Sum)
			}
		}
	}
	if !sawCount || !sawSize {
		t.Errorf("batch metrics missing: count=%v sizeHist=%v", sawCount, sawSize)
	}
}

// A parked vehicle under the opening-window default costs O(WindowCap) per
// fix, not O(fixes so far): ten full MAPPENDs of one position, rising t,
// finish in under a second, and while they run a POSITION for another
// object of the same shard never waits 200 ms for the shard's write lock.
// An unbounded window re-tests every parked fix on every push, which held
// the lock for seconds per batch.
func TestParkedObjectIngest(t *testing.T) {
	factory, err := stream.ParseFactory("opwtr:30")
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(store.Options{NewCompressor: factory, Shards: 1}) // one shard: every id shares its lock
	addr, shutdown := startServer(t, st)
	defer shutdown()

	const batches, perBatch = 10, maxBatchAppend
	budget, lockWait := time.Second, 200*time.Millisecond
	if raceEnabled {
		// The race detector slows the scan by an order of magnitude; an
		// unbounded window still needs minutes.
		budget, lockWait = 15*time.Second, 3*time.Second
	}
	deadline := time.Now().Add(budget + 5*time.Second)

	neighbour, nr := rawConn(t, addr)
	if err := neighbour.SetDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(neighbour, "APPEND neighbour 0 10 10\nAPPEND neighbour 100 20 20\n")
	for i := 0; i < 2; i++ {
		if got, err := nr.ReadString('\n'); err != nil || strings.TrimSpace(got) != "OK" {
			t.Fatalf("neighbour APPEND: %q, %v", got, err)
		}
	}

	// The probe reports its slowest POSITION round trip; it stops before
	// the test returns, also when the ingest fails.
	type probe struct {
		worst time.Duration
		err   error
	}
	done, res := make(chan struct{}), make(chan probe, 1)
	go func() {
		var p probe
		defer func() { res <- p }()
		for {
			select {
			case <-done:
				return
			default:
			}
			t0 := time.Now()
			fmt.Fprint(neighbour, "POSITION neighbour 50\n")
			got, err := nr.ReadString('\n')
			if err != nil || !strings.HasPrefix(got, "OK ") {
				p.err = fmt.Errorf("POSITION during parked ingest: %q, %v", got, err)
				return
			}
			p.worst = max(p.worst, time.Since(t0))
		}
	}()
	var p probe
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			close(done)
			p = <-res
		}
	}
	defer stop() // before rawConn's cleanup closes the connections

	conn, br := rawConn(t, addr)
	if err := conn.SetDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	start := time.Now()
	for b := 0; b < batches; b++ {
		fmt.Fprintf(w, "MAPPEND parked %d\n", perBatch)
		for i := 0; i < perBatch; i++ {
			fmt.Fprintf(w, "%d 500 500\n", b*perBatch+i)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("OK appended=%d", perBatch)
		if got, err := br.ReadString('\n'); err != nil || strings.TrimSpace(got) != want {
			t.Errorf("batch %d: %q, %v; want %q", b, got, err, want)
			break
		}
	}
	elapsed := time.Since(start)
	stop()
	if elapsed > budget {
		t.Errorf("%d parked fixes took %v, budget %v", batches*perBatch, elapsed, budget)
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.worst > lockWait {
		t.Errorf("a POSITION in the parked object's shard waited %v, bound %v", p.worst, lockWait)
	}
}
