// Package server exposes the moving-object store over TCP with a
// newline-delimited text protocol, so position sources (GPS gateways,
// simulators) and analysis clients can share one live store — the
// transmission-side deployment the paper's introduction motivates.
//
// Protocol (one command per line, space-separated; responses are a single
// "OK ..."/"ERR ..." line, or data lines terminated by "END"):
//
//	APPEND <id> <t> <x> <y>                   → OK
//	MAPPEND <id> <n>                          → OK appended=<n> after n further
//	                                          "<t> <x> <y>" data lines: one
//	                                          batch append, one reply. A
//	                                          malformed data line rejects the
//	                                          whole batch; a store rejection
//	                                          (e.g. out-of-order time) applies
//	                                          an intact prefix and reports it
//	                                          as "ERR applied=<k> ..."
//	POSITION <id> <t>                         → OK <x> <y>
//	SNAPSHOT <id>                             → <t> <x> <y> lines, END
//	QUERY <minx> <miny> <maxx> <maxy> <t0> <t1> → id lines, END
//	QUERYTOL <minx> <miny> <maxx> <maxy> <t0> <t1> <eps> → id lines, END
//	                                          (tolerance-expanded query: no
//	                                          false negatives when eps is the
//	                                          compressor's error bound)
//	QUERYRANGE <minx> <miny> <maxx> <maxy> <t0> <t1> → "<id> <t> <x> <y>"
//	                                          lines, END: every stored point
//	                                          in the window, the union of hot
//	                                          retained samples and cold sealed
//	                                          blocks (reconstructed within the
//	                                          tier's error bound ε)
//	NEAREST <x> <y> <t> <k>                   → "<id> <x> <y> <dist>" lines
//	                                          (nearest first), END: the k
//	                                          objects closest to (x, y) at
//	                                          time t, interpolated across both
//	                                          tiers
//	SEAL <t>                                  → OK sealed=<n>: moves retained
//	                                          samples older than t into the
//	                                          cold sealed tier (ERR when the
//	                                          backend has no cold tier)
//	EVICT <t>                                 → OK removed=<n> (seals instead
//	                                          of dropping when a cold tier is
//	                                          configured)
//	IDS                                       → id lines, END
//	STATS                                     → OK objects=… raw=… retained=…
//	                                          compression=… uptime=… sealed=…
//	                                          sealedblocks=… sealedbytes=…
//	                                          walacked=… role=…, then one
//	                                          "obj <id> points=<n>" line per
//	                                          object, END (walacked is the
//	                                          WAL's durable byte offset, 0
//	                                          without a WAL; role is primary
//	                                          or follower)
//	METRICS                                   → Prometheus text exposition of
//	                                          the server's metrics registry,
//	                                          END
//	REPLICATE <offset> [seq]                  → OK replicate offset=<n>, then
//	                                          a replication stream of DATA/
//	                                          PING frames (see internal/repl)
//	                                          until the follower disconnects,
//	                                          is shed for lag, or the server
//	                                          stops; the connection leaves the
//	                                          command protocol for good
//	PROMOTE                                   → OK role=primary: flips a
//	                                          replication follower into a
//	                                          primary (manual failover);
//	                                          idempotent, also on a node that
//	                                          already is a primary
//	SUBSCRIBE <id|*> [spec] [policy]          → OK subscribed, then a live
//	                                          "POS <id> <t> <x> <y>" line per
//	                                          APPEND of a matching object
//	                                          until the subscriber closes its
//	                                          connection; the feed is
//	                                          best-effort (slow subscribers
//	                                          never block ingest). The
//	                                          optional spec names any
//	                                          online-capable algorithm of
//	                                          compress.Parse (compress.Help
//	                                          prints the grammar; e.g.
//	                                          operb:30, ciseds:30,
//	                                          opwsp:30:5) applied per object on
//	                                          this subscriber's feed: only
//	                                          retained points are delivered,
//	                                          trading latency/completeness
//	                                          for bandwidth under the
//	                                          algorithm's error bound. "none"
//	                                          (the default) relays every
//	                                          point. The optional policy
//	                                          picks what a saturated feed
//	                                          does: drop-newest (default —
//	                                          the incoming update is lost),
//	                                          drop-oldest (the feed
//	                                          converges on the freshest
//	                                          positions), or disconnect (the
//	                                          feed ends). Spec and policy
//	                                          may appear in either order
//	SUBSCRIBE BOX <minx> <miny> <maxx> <maxy> [spec] [policy]
//	                                          → OK subscribed: a geofence
//	                                          feed — like SUBSCRIBE *, but
//	                                          only positions inside the box
//	                                          are delivered; the predicate
//	                                          is evaluated server-side on
//	                                          the fan-out bus shard
//	PING                                      → OK pong
//	QUIT                                      → OK bye (connection closes)
//
// Object identifiers must not contain whitespace.
//
// Pipelining: clients may send many commands without waiting for replies.
// The server defers its response flush while more input is already
// buffered, so a pipelined batch costs one write syscall instead of one per
// command; replies always come back in command order.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// Backend is the store surface the server exposes. *store.Store implements
// it directly; *wal.DurableStore implements it with write-ahead-logged
// appends.
type Backend interface {
	Append(id string, s trajectory.Sample) error
	// AppendBatch ingests samples for one object in one store round trip.
	// On error the first `applied` samples were ingested (an intact
	// prefix) and the rest were not. ss belongs to the caller: the server
	// reuses it for the connection's next batch, so an implementation must
	// not retain it after returning.
	AppendBatch(id string, ss []trajectory.Sample) (applied int, err error)
	Snapshot(id string) (trajectory.Trajectory, bool)
	PositionAt(id string, t float64) (geo.Point, bool)
	Query(rect geo.Rect, t0, t1 float64) []string
	QueryWithTolerance(rect geo.Rect, t0, t1, eps float64) []string
	// RangePoints returns every stored point in the window from both
	// storage tiers, ordered by object ID then time.
	RangePoints(rect geo.Rect, t0, t1 float64) []store.RangePoint
	// Nearest returns the k objects closest to q at time t, nearest first.
	Nearest(q geo.Point, t float64, k int) []store.Neighbor
	// SealBefore moves retained samples older than t into the cold sealed
	// tier; store.ErrSealDisabled when the backend has no cold tier.
	SealBefore(t float64) (int, error)
	EvictBefore(t float64) int
	IDs() []string
	Stats() store.Stats
}

// Server serves the protocol over a listener. Create with New, start with
// Serve, stop with Close (abrupt) or Shutdown (draining).
type Server struct {
	st Backend

	// IdleTimeout closes connections that send no command for the given
	// duration; 0 (the default) disables the limit. Set before Serve.
	IdleTimeout time.Duration

	// MaxConns caps concurrently served connections; excess connections are
	// shed with a one-line "ERR busy" and closed, counted in
	// server_sheds_total, instead of degrading every established session.
	// 0 (the default) means unlimited. Set before Serve.
	MaxConns int

	// WriteTimeout bounds each response write (and each streamed update),
	// so one wedged client cannot pin a handler forever. 0 (the default)
	// disables the limit. Set before Serve.
	WriteTimeout time.Duration

	// Repl, when non-nil, answers REPLICATE by streaming the backend's WAL
	// to the dialling follower and — in AckFollower mode — holds each write
	// acknowledgement until a follower has fsynced the record. Set before
	// Serve. A promoted follower needs this wired too: it is what lets the
	// restarted old primary re-attach to the new one.
	Repl *repl.Primary

	// Follower, when non-nil and not yet promoted, marks this node a
	// replication follower: write commands are refused with "ERR readonly"
	// (reads are served normally) and PROMOTE flips it to primary. Set
	// before Serve.
	Follower *repl.Follower

	// SubBuf is the per-subscriber ring capacity for SUBSCRIBE feeds; 0
	// (the default) selects 256, matching the buffered channel the fan-out
	// bus replaced. Set before Serve.
	SubBuf int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// bus fans accepted observations out to SUBSCRIBE feeds: shard-keyed
	// registration, per-subscriber ring buffers with a slow-consumer
	// policy, and per-subscriber compression outside any server lock.
	bus *bus.Bus

	ins *instruments
}

// New returns a server over the given backend, instrumented in the default
// metrics registry (see UseRegistry).
func New(st Backend) *Server {
	ins := newInstruments(nil)
	return &Server{
		st:    st,
		conns: make(map[net.Conn]struct{}),
		bus:   bus.New(ins.busOptions()),
		ins:   ins,
	}
}

// UseRegistry re-registers the server's instruments in r and makes METRICS
// report r's snapshot. Call before Serve; pair it with the same registry in
// store.Options.Metrics so one snapshot covers the whole stack. The fan-out
// bus is rebuilt against the new instruments, so feeds subscribed earlier
// are closed — call before serving traffic.
func (s *Server) UseRegistry(r *metrics.Registry) {
	s.bus.CloseAll()
	s.ins = newInstruments(r)
	s.bus = bus.New(s.ins.busOptions())
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on l until Close is called. It always returns a
// non-nil error; after Close the error is ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // best effort: the server is shutting down
			return ErrServerClosed
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.mu.Unlock()
			s.shed(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close() // handler exit: close error is unobservable by the client
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// shed refuses one connection over the MaxConns cap: a polite ERR line so
// the client knows to back off, then close. The write carries a short
// deadline so a black-holed client cannot stall the accept loop.
func (s *Server) shed(conn net.Conn) {
	s.ins.sheds.Inc()
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	fmt.Fprintln(conn, "ERR busy: connection limit reached, retry later")
	_ = conn.Close() // the client sees the ERR (or a reset); nothing to report
}

// Shutdown drains the server: it stops accepting, lets every in-flight
// command finish and flush its response, ends streaming feeds, and waits
// for all handlers to exit. If ctx expires first the remaining connections
// are force-closed, Close-style. Safe to call concurrently with Close;
// whichever runs first wins.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		// Unpark idle command readers so their handlers observe the drain;
		// a read deadline does not disturb in-flight response writes.
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	// Close every subscriber feed: streaming handlers drain their ring
	// backlog and exit once the final updates are written.
	s.bus.CloseAll()
	// End replication streams (their handlers never finish on their own)
	// and release any writes still waiting on a follower acknowledgement.
	if s.Repl != nil {
		s.Repl.Stop()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.wg.Wait()
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close() // drain deadline expired: force-close stragglers
		}
		s.mu.Unlock()
		<-done
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		_ = c.Close() // best effort: unblocks handler reads; Close reports the listener error
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	if s.Repl != nil {
		s.Repl.Stop()
	}
	s.wg.Wait()
	return err
}

// session is one connection's protocol state: its reader and writer, and
// the buffers every command on it reuses, so steady-state ingest allocates
// nothing per point.
type session struct {
	br *bufio.Reader
	w  *bufio.Writer

	// fields is the current line split by splitFields: subslices of br's
	// buffer, valid until the next read.
	fields   [][]byte
	fieldBuf [maxFields][]byte

	// samples is the MAPPEND batch, reused by every batch on the
	// connection; maxBatchAppend bounds it at 240 KB.
	samples []trajectory.Sample
	out     []byte // the reply line being formatted
}

// next reads the next line and splits it into c.fields.
func (c *session) next() error {
	line, err := readCommandLine(c.br)
	if err != nil {
		return err
	}
	c.fields = splitFields(c.fieldBuf[:0], line)
	return nil
}

// writeRow writes one reply line: head, the start of the line built in
// c.out, then vs as %g prints them, space-separated.
func (c *session) writeRow(head []byte, vs ...float64) {
	for i, v := range vs {
		if i > 0 {
			head = append(head, ' ')
		}
		head = strconv.AppendFloat(head, v, 'g', -1, 64)
	}
	c.out = append(head, '\n')
	c.w.Write(c.out)
}

func (s *Server) handle(conn net.Conn) {
	s.ins.connsTotal.Inc()
	s.ins.connsActive.Inc()
	defer s.ins.connsActive.Dec()
	dw := &deadlineWriter{conn: conn, timeout: s.WriteTimeout}
	c := &session{br: bufio.NewReaderSize(conn, 4096), w: bufio.NewWriter(dw)}
	for {
		s.mu.Lock()
		draining := s.closed
		s.mu.Unlock()
		if draining {
			// Shutdown in progress: the in-flight command (if any) has been
			// answered and flushed; stop reading new ones.
			return
		}
		if s.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return
			}
		}
		if c.next() != nil {
			return
		}
		if len(c.fields) == 0 {
			continue
		}
		quit, sub, rr := s.dispatch(c)
		if rr != nil {
			// The connection leaves the command protocol and becomes a
			// replication stream until it breaks; ServeFollower flushes any
			// responses still buffered from a pipelined batch first, and
			// arms its own per-frame write deadlines from here on.
			dw.timeout = 0
			_ = s.Repl.ServeFollower(conn, c.br, c.w, rr.offset, rr.seq)
			return
		}
		// Pipelining fast path: while more input is already buffered, defer
		// the flush — the whole pipelined batch answers in one syscall.
		if c.br.Buffered() > 0 && !quit && sub == nil {
			continue
		}
		if c.w.Flush() != nil || quit {
			return
		}
		if sub != nil {
			s.stream(conn, c.w, sub)
			return
		}
	}
}

// deadlineWriter sits under a connection's bufio.Writer and arms the write
// deadline where the bytes actually leave. Arming it only at Flush would
// let a reply larger than the buffer spill to the socket mid-command under
// the deadline left by the previous flush — long expired on a connection
// that sat idle. A flushed batch that fits the buffer is one Write, so the
// APPEND/MAPPEND path still pays one SetWriteDeadline per flush.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration // 0 = no deadline
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if d.timeout > 0 {
		if err := d.conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
			return 0, err
		}
	}
	return d.conn.Write(p)
}

// stream pumps a subscriber's feed to the connection until the feed closes
// (client unsubscription, a disconnect-policy overflow, or Shutdown) or the
// write fails; a reader goroutine watches for the client closing its end.
// Each ring drain is written as one batch with a single flush, so a burst
// of published updates costs one SetWriteDeadline+Flush syscall pair
// instead of one per line.
func (s *Server) stream(conn net.Conn, w *bufio.Writer, sub *bus.Subscriber) {
	defer s.bus.Unsubscribe(sub)
	// Detect client hangup: when the read side errors, unsubscribe, which
	// closes the feed and ends the drain loop below. The goroutine is
	// tracked by s.wg (the counter is already positive: the handler holds a
	// unit), and terminates when the handler's deferred conn.Close unblocks
	// the read — so Close cannot return while it still runs.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if s.IdleTimeout > 0 {
			// Streaming connections are exempt from the idle timeout on
			// reads (the client is not expected to talk); clearing the
			// deadline once covers every subsequent read.
			if err := conn.SetReadDeadline(time.Time{}); err != nil {
				s.bus.Unsubscribe(sub)
				return
			}
		}
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		s.bus.Unsubscribe(sub)
	}()
	var lines []string
	for {
		var open bool
		lines, open = sub.Drain(lines)
		for _, line := range lines {
			if _, err := w.WriteString(line); err != nil {
				return
			}
			if err := w.WriteByte('\n'); err != nil {
				return
			}
		}
		if len(lines) > 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
		if !open {
			return
		}
	}
}

// publish fans one accepted observation out to subscriber feeds via the
// sharded bus: no server lock is held, and per-subscriber compression and
// line formatting run outside any global lock.
func (s *Server) publish(id string, smp trajectory.Sample) {
	s.bus.Publish(id, smp)
}

// releaseEvictedComps drops per-object feed compressors for objects with no
// hot history left in the store — without this, a wildcard subscriber with
// a compression spec leaks a compressor per evicted or wholly sealed object
// forever under fleet churn. (IDs would keep sealed-only objects alive.)
func (s *Server) releaseEvictedComps() {
	hot := s.st.Stats().PointsPerObject
	s.bus.ReleaseCompressors(func(id string) bool {
		_, ok := hot[id]
		return ok
	})
}

// replRequest carries a validated REPLICATE command from dispatch back to
// the handler loop, which owns the net.Conn the stream needs.
type replRequest struct {
	offset int64
	seq    uint64
}

// readonly reports whether write commands must be refused: the node is a
// replication follower that has not been promoted.
func (s *Server) readonly() bool {
	return s.Follower != nil && !s.Follower.Promoted()
}

// role names the node's replication role for STATS.
func (s *Server) role() string {
	if s.readonly() {
		return "follower"
	}
	return "primary"
}

// errReadonly is the refusal every write command gets on a follower.
const errReadonly = "ERR readonly: this node is a replication follower (send writes to the primary or PROMOTE)"

// ackedBackend is the optional backend surface replication-aware STATS
// report; *wal.DurableStore implements it.
type ackedBackend interface {
	AckedOffset() int64
}

// dispatch executes the command in c.fields; it reports whether the
// connection should close, a non-nil subscriber when the connection switches
// to streaming mode, and a non-nil replRequest when it switches to a
// replication stream. MAPPEND additionally reads its data lines from c.br.
func (s *Server) dispatch(c *session) (quit bool, sub *bus.Subscriber, rr *replRequest) {
	cmd := commandName(c.fields[0])
	args := c.fields[1:]
	w := c.w

	count, seconds := s.ins.command(cmd)
	count.Inc()
	defer seconds.ObserveSince(time.Now())

	switch cmd {
	case "PING":
		w.WriteString("OK pong\n")
	case "QUIT":
		w.WriteString("OK bye\n")
		return true, nil, nil
	case "SUBSCRIBE":
		return false, s.cmdSubscribe(w, args), nil
	case "APPEND":
		s.cmdAppend(c, args)
	case "MAPPEND":
		if err := s.cmdBatchAppend(c, args); err != nil {
			return true, nil, nil // torn mid-batch: no way back to command framing
		}
	case "REPLICATE":
		return false, nil, s.cmdReplicate(w, args)
	case "PROMOTE":
		s.cmdPromote(w)
	case "POSITION":
		s.cmdPosition(c, args)
	case "SNAPSHOT":
		s.cmdSnapshot(c, args)
	case "QUERY":
		if rect, v, ok := queryWindow(w, args, 6, "ERR usage: QUERY <minx> <miny> <maxx> <maxy> <t0> <t1>\n"); ok {
			writeIDs(w, s.st.Query(rect, v[4], v[5]))
		}
	case "QUERYTOL":
		if rect, v, ok := queryWindow(w, args, 7, "ERR usage: QUERYTOL <minx> <miny> <maxx> <maxy> <t0> <t1> <eps>\n"); ok {
			writeIDs(w, s.st.QueryWithTolerance(rect, v[4], v[5], v[6]))
		}
	case "QUERYRANGE":
		s.cmdQueryRange(c, args)
	case "NEAREST":
		s.cmdNearest(c, args)
	case "SEAL":
		s.cmdSeal(w, args)
	case "EVICT":
		s.cmdEvict(w, args)
	case "IDS":
		writeIDs(w, s.st.IDs())
	case "STATS":
		s.cmdStats(w)
	case "METRICS":
		metrics.WritePrometheus(w, s.ins.registry.Snapshot())
		w.WriteString("END\n")
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false, nil, nil
}

// writeIDs writes one line per id, then END.
func writeIDs(w *bufio.Writer, ids []string) {
	for _, id := range ids {
		w.WriteString(id)
		w.WriteByte('\n')
	}
	w.WriteString("END\n")
}

const subscribeUsage = "ERR usage: SUBSCRIBE <id|*> [spec] [policy] | SUBSCRIBE BOX <minx> <miny> <maxx> <maxy> [spec] [policy]\n"

// cmdSubscribe parses both SUBSCRIBE forms and registers the feed on the
// fan-out bus (nil return: an error was written). The tail arguments — at
// most one compression spec and one slow-consumer policy — may appear in
// either order: policy names never collide with compress.Parse's spec
// grammar.
func (s *Server) cmdSubscribe(w *bufio.Writer, args [][]byte) *bus.Subscriber {
	if len(args) < 1 {
		w.WriteString(subscribeUsage)
		return nil
	}
	opts := bus.SubOptions{ID: string(args[0]), Capacity: s.SubBuf}
	tail := args[1:]
	if strings.ToUpper(opts.ID) == "BOX" {
		if len(args) < 5 {
			w.WriteString(subscribeUsage)
			return nil
		}
		var buf [4]float64
		v, err := parseFloats(buf[:0], args[1:5])
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return nil
		}
		rect := geo.Rect{Min: geo.Pt(v[0], v[1]), Max: geo.Pt(v[2], v[3])}
		if rect.IsEmpty() {
			w.WriteString("ERR empty geofence box\n")
			return nil
		}
		opts.Box = &rect
		tail = args[5:]
	}
	var havePolicy, haveSpec bool
	for _, field := range tail {
		arg := string(field)
		if p, ok := bus.ParsePolicy(arg); ok && !havePolicy {
			opts.Policy = p
			havePolicy = true
			continue
		}
		if haveSpec {
			w.WriteString(subscribeUsage)
			return nil
		}
		factory, err := stream.ParseFactory(arg)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return nil
		}
		opts.NewComp = factory // nil for "none": plain relay
		haveSpec = true
	}
	sub := s.bus.Subscribe(opts)
	w.WriteString("OK subscribed\n")
	return sub
}

// cmdReplicate validates REPLICATE <offset> [seq] and hands the stream
// request back to the handler loop (nil return: an error was written).
func (s *Server) cmdReplicate(w *bufio.Writer, args [][]byte) *replRequest {
	if s.Repl == nil {
		w.WriteString("ERR replication not available (this server runs without a WAL)\n")
		return nil
	}
	if len(args) < 1 || len(args) > 2 {
		w.WriteString("ERR usage: REPLICATE <offset> [seq]\n")
		return nil
	}
	offset, err := strconv.ParseInt(string(args[0]), 10, 64)
	if err != nil || offset < 0 {
		w.WriteString("ERR offset must be a non-negative integer\n")
		return nil
	}
	var seq uint64
	if len(args) == 2 {
		seq, err = strconv.ParseUint(string(args[1]), 10, 64)
		if err != nil {
			w.WriteString("ERR seq must be a non-negative integer\n")
			return nil
		}
	}
	return &replRequest{offset: offset, seq: seq}
}

// cmdPromote flips a follower into a primary; on a node that already is a
// primary it is a no-op. Always answers the resulting role, so retrying the
// command against the wrong node is harmless.
func (s *Server) cmdPromote(w *bufio.Writer) {
	if s.Follower != nil {
		s.Follower.Promote()
	}
	w.WriteString("OK role=primary\n")
}

func (s *Server) cmdAppend(c *session, args [][]byte) {
	if s.readonly() {
		c.w.WriteString(errReadonly + "\n")
		return
	}
	if len(args) != 4 {
		c.w.WriteString("ERR usage: APPEND <id> <t> <x> <y>\n")
		return
	}
	smp, err := parseSample(args[1:])
	if err != nil {
		fmt.Fprintf(c.w, "ERR %v\n", err)
		return
	}
	id := string(args[0])
	if err := s.st.Append(id, smp); err != nil {
		fmt.Fprintf(c.w, "ERR %v\n", err)
		return
	}
	s.publish(id, smp)
	// Follower-ack mode: the record is locally durable, but the OK must
	// additionally mean a follower fsynced it. A wait failure is reported as
	// ERR — the client must treat the append as unconfirmed, exactly like a
	// connection cut after send.
	if s.Repl != nil {
		if err := s.Repl.WaitReplicated(); err != nil {
			fmt.Fprintf(c.w, "ERR repl: %v\n", err)
			return
		}
	}
	c.w.WriteString("OK\n")
}

// maxBatchAppend caps MAPPEND batch sizes; a batch is buffered in memory
// before it is applied, so the cap bounds per-connection memory.
const maxBatchAppend = 10000

// cmdBatchAppend handles MAPPEND <id> <n>: n further "<t> <x> <y>" data
// lines belong to the command, and one line answers the whole batch. All n
// lines are consumed even when one is malformed, so the connection never
// desynchronizes into interpreting samples as commands. A returned error
// means the data lines could not be read and the connection must close.
func (s *Server) cmdBatchAppend(c *session, args [][]byte) error {
	if len(args) != 2 {
		c.w.WriteString("ERR usage: MAPPEND <id> <n>\n")
		return nil
	}
	n, err := strconv.Atoi(string(args[1]))
	if err != nil || n <= 0 || n > maxBatchAppend {
		fmt.Fprintf(c.w, "ERR batch size must be 1..%d\n", maxBatchAppend)
		return nil
	}
	id := string(args[0]) // before the data lines overwrite the reader's buffer
	c.samples = c.samples[:0]
	bad := 0 // the first malformed data line, 1-based
	for i := 1; i <= n; i++ {
		if err := c.next(); err != nil {
			return err
		}
		if bad > 0 {
			continue
		}
		if len(c.fields) != 3 {
			bad = i
			continue
		}
		smp, err := parseSample(c.fields)
		if err != nil {
			bad = i
			continue
		}
		c.samples = append(c.samples, smp)
	}
	if bad > 0 {
		fmt.Fprintf(c.w, "ERR batch sample %d: want <t> <x> <y>\n", bad)
		return nil
	}
	// The readonly refusal comes only after every data line is consumed, so
	// the connection stays in command framing.
	if s.readonly() {
		c.w.WriteString(errReadonly + "\n")
		return nil
	}
	s.ins.batchAppends.Inc()
	s.ins.batchSize.Observe(float64(len(c.samples)))
	applied, err := s.st.AppendBatch(id, c.samples)
	for _, smp := range c.samples[:applied] {
		s.publish(id, smp)
	}
	if err != nil {
		fmt.Fprintf(c.w, "ERR applied=%d: %v\n", applied, err)
		return nil
	}
	if s.Repl != nil {
		if err := s.Repl.WaitReplicated(); err != nil {
			// The batch is applied and locally durable but its replication
			// is unconfirmed; applied= lets the client keep exact cursors.
			fmt.Fprintf(c.w, "ERR applied=%d: repl: %v\n", applied, err)
			return nil
		}
	}
	c.out = append(strconv.AppendInt(append(c.out[:0], "OK appended="...), int64(applied), 10), '\n')
	c.w.Write(c.out)
	return nil
}

func (s *Server) cmdPosition(c *session, args [][]byte) {
	if len(args) != 2 {
		c.w.WriteString("ERR usage: POSITION <id> <t>\n")
		return
	}
	t, err := parseFloat(args[1])
	if err != nil {
		fmt.Fprintf(c.w, "ERR %v\n", err)
		return
	}
	pos, ok := s.st.PositionAt(string(args[0]), t)
	if !ok {
		c.w.WriteString("ERR no position (unknown object or time outside span)\n")
		return
	}
	c.writeRow(append(c.out[:0], "OK "...), pos.X, pos.Y)
}

func (s *Server) cmdSnapshot(c *session, args [][]byte) {
	if len(args) != 1 {
		c.w.WriteString("ERR usage: SNAPSHOT <id>\n")
		return
	}
	id := string(args[0])
	snap, ok := s.st.Snapshot(id)
	if !ok {
		fmt.Fprintf(c.w, "ERR unknown object %q\n", id)
		return
	}
	for _, p := range snap {
		c.writeRow(c.out[:0], p.T, p.X, p.Y)
	}
	c.w.WriteString("END\n")
}

// queryWindow parses the want numeric arguments of a window query — the
// rectangle, then t0 and t1, then any extra — writing usage or an error and
// reporting false when they do not form a non-empty window.
func queryWindow(w *bufio.Writer, args [][]byte, want int, usage string) (rect geo.Rect, v [7]float64, ok bool) {
	if len(args) != want {
		w.WriteString(usage)
		return rect, v, false
	}
	if _, err := parseFloats(v[:0], args); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return rect, v, false
	}
	rect = geo.Rect{Min: geo.Pt(v[0], v[1]), Max: geo.Pt(v[2], v[3])}
	if rect.IsEmpty() || v[5] < v[4] {
		w.WriteString("ERR empty query window\n")
		return rect, v, false
	}
	return rect, v, true
}

func (s *Server) cmdQueryRange(c *session, args [][]byte) {
	rect, v, ok := queryWindow(c.w, args, 6, "ERR usage: QUERYRANGE <minx> <miny> <maxx> <maxy> <t0> <t1>\n")
	if !ok {
		return
	}
	for _, p := range s.st.RangePoints(rect, v[4], v[5]) {
		c.writeRow(append(append(c.out[:0], p.ID...), ' '), p.S.T, p.S.X, p.S.Y)
	}
	c.w.WriteString("END\n")
}

func (s *Server) cmdNearest(c *session, args [][]byte) {
	if len(args) != 4 {
		c.w.WriteString("ERR usage: NEAREST <x> <y> <t> <k>\n")
		return
	}
	var buf [3]float64
	v, err := parseFloats(buf[:0], args[:3])
	if err != nil {
		fmt.Fprintf(c.w, "ERR %v\n", err)
		return
	}
	k, err := strconv.Atoi(string(args[3]))
	if err != nil || k <= 0 {
		c.w.WriteString("ERR k must be a positive integer\n")
		return
	}
	for _, nb := range s.st.Nearest(geo.Pt(v[0], v[1]), v[2], k) {
		c.writeRow(append(append(c.out[:0], nb.ID...), ' '), nb.Pos.X, nb.Pos.Y, nb.Dist)
	}
	c.w.WriteString("END\n")
}

// cutTime parses the single <t> argument of SEAL and EVICT, writing usage
// or the parse error and reporting false when there is none.
func cutTime(w *bufio.Writer, args [][]byte, usage string) (float64, bool) {
	if len(args) != 1 {
		w.WriteString(usage)
		return 0, false
	}
	t, err := parseFloat(args[0])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return 0, false
	}
	return t, true
}

func (s *Server) cmdSeal(w *bufio.Writer, args [][]byte) {
	if s.readonly() {
		w.WriteString(errReadonly + "\n")
		return
	}
	t, ok := cutTime(w, args, "ERR usage: SEAL <t>\n")
	if !ok {
		return
	}
	n, err := s.st.SealBefore(t)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	if n > 0 {
		s.releaseEvictedComps()
	}
	fmt.Fprintf(w, "OK sealed=%d\n", n)
}

// cmdStats reports storage statistics from one consistent store snapshot:
// a summary line, then one "obj <id> points=<n>" line per object, then END.
// Uptime comes from the metrics registry so STATS and METRICS agree on the
// process start instant.
func (s *Server) cmdStats(w *bufio.Writer) {
	st := s.st.Stats()
	var walAcked int64
	if ab, ok := s.st.(ackedBackend); ok {
		walAcked = ab.AckedOffset()
	}
	fmt.Fprintf(w, "OK objects=%d raw=%d retained=%d compression=%.1f uptime=%.3f sealed=%d sealedblocks=%d sealedbytes=%d walacked=%d role=%s\n",
		st.Objects, st.RawPoints, st.RetainedPoints, st.CompressionPct,
		s.ins.registry.Uptime().Seconds(),
		st.SealedPoints, st.SealedBlocks, st.SealedBytes,
		walAcked, s.role())
	ids := make([]string, 0, len(st.PointsPerObject))
	for id := range st.PointsPerObject {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "obj %s points=%d\n", id, st.PointsPerObject[id])
	}
	w.WriteString("END\n")
}

func (s *Server) cmdEvict(w *bufio.Writer, args [][]byte) {
	if s.readonly() {
		w.WriteString(errReadonly + "\n")
		return
	}
	t, ok := cutTime(w, args, "ERR usage: EVICT <t>\n")
	if !ok {
		return
	}
	n := s.st.EvictBefore(t)
	if n > 0 {
		s.releaseEvictedComps()
	}
	fmt.Fprintf(w, "OK removed=%d\n", n)
}
