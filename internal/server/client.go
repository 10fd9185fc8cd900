package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// RemoteError is a reply the server delivered and rejected ("ERR ..."). It
// is never retried: the request reached the server, which answered — the
// failure is semantic, not transport.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "server: " + e.Msg }

// ClientOptions tunes the client's resilience. The zero value selects sane
// defaults throughout, so Dial(addr) behaves like a robust client out of
// the box.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// IOTimeout bounds each request round trip (write + full response read)
	// via a connection deadline, so a silent or wedged server surfaces as a
	// timeout error instead of a hang. Default 10s; negative disables.
	IOTimeout time.Duration
	// MaxRetries is how many times a failed request may be retried after
	// the first attempt (reconnecting as needed). Only idempotent commands
	// are ever re-sent; see Append. Default 2; negative disables retries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential reconnect backoff:
	// attempt n waits jittered base·2ⁿ capped at max. Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter, so a failing run replays exactly.
	Seed int64
	// Metrics receives the client_retries_total and client_reconnects_total
	// counters (nil selects metrics.Default()).
	Metrics *metrics.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// Client is a synchronous, self-healing client for the tracking protocol:
// on transport errors it reconnects with seeded exponential backoff and
// retries idempotent commands. It is safe for concurrent use; requests are
// serialized over one connection.
type Client struct {
	addr string
	opts ClientOptions

	mu   sync.Mutex
	conn net.Conn // nil while disconnected
	r    *bufio.Reader
	w    *bufio.Writer
	rng  *rand.Rand
	ever bool // a connection has succeeded before (reconnects vs first dial)

	retries    *metrics.Counter
	reconnects *metrics.Counter
}

// Dial connects to a tracking server with default resilience options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialTimeout is Dial with an explicit bound on the connection attempt.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	return DialOptions(addr, ClientOptions{DialTimeout: d})
}

// DialOptions connects to a tracking server with explicit resilience
// options. The initial connection is attempted once, without retries, so a
// wrong address fails fast.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	c := &Client{
		addr:       addr,
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		retries:    reg.Counter("client_retries_total"),
		reconnects: reg.Counter("client_reconnects_total"),
	}
	if err := c.connLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connLocked dials the server unless a connection is live. Callers hold
// c.mu, except DialOptions before the client escapes.
func (c *Client) connLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("server: dial %s: %w", c.addr, err)
	}
	if c.ever {
		c.reconnects.Inc()
	}
	c.ever = true
	c.conn, c.r, c.w = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	return nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		_ = c.conn.Close() // already failing; the request error is the one reported
		c.conn = nil
	}
}

// backoff sleeps the jittered exponential delay for retry number n (0-based).
func (c *Client) backoffLocked(n int) {
	d := c.opts.BackoffBase << uint(n)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// Jitter to [d/2, d): concurrent clients retrying a restarted server
	// spread out instead of stampeding in lockstep.
	time.Sleep(d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1)))
}

// Close sends QUIT (best effort) on the live connection and closes it.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	fmt.Fprintln(c.w, "QUIT")
	_ = c.w.Flush() // best-effort courtesy QUIT; Close reports the connection close
	err := c.conn.Close()
	c.conn = nil
	return err
}

// do runs one request: send cmd, parse the response with read. Transport
// failures drop the connection; idempotent requests are then retried (up to
// MaxRetries) over a fresh connection after a backoff. Non-idempotent
// requests are never re-sent once any bytes may have reached the server —
// an APPEND whose reply was lost might have been applied, and blind resend
// would be rejected as a duplicate timestamp at best and double-apply at
// worst. A RemoteError is final.
func (c *Client) do(cmd string, idempotent bool, read func(r *bufio.Reader) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := c.connLocked(); err != nil {
			if attempt >= c.opts.MaxRetries {
				return err
			}
			// Nothing has been sent, so waiting out a restart is safe for
			// every command class.
			c.retries.Inc()
			c.backoffLocked(attempt)
			continue
		}
		err := c.sendRecvLocked(cmd, read)
		if err == nil {
			return nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			return err
		}
		c.dropLocked()
		if !idempotent || attempt >= c.opts.MaxRetries {
			return err
		}
		c.retries.Inc()
		c.backoffLocked(attempt)
	}
}

func (c *Client) sendRecvLocked(cmd string, read func(r *bufio.Reader) error) error {
	if c.opts.IOTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout)); err != nil {
			return fmt.Errorf("server: deadline: %w", err)
		}
	}
	if _, err := fmt.Fprintln(c.w, cmd); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return read(c.r)
}

// readLine reads one response line, converting ERR replies to RemoteError.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR ") {
		return "", &RemoteError{Msg: strings.TrimPrefix(line, "ERR ")}
	}
	return line, nil
}

// roundTrip sends one command and reads a single-line response.
func (c *Client) roundTrip(cmd string, idempotent bool) (string, error) {
	var resp string
	err := c.do(cmd, idempotent, func(r *bufio.Reader) error {
		var rerr error
		resp, rerr = readLine(r)
		return rerr
	})
	return resp, err
}

// readList sends one command and reads data lines up to END. Every list
// command is a read, so it is retried like one.
func (c *Client) readList(cmd string) ([]string, error) {
	var out []string
	err := c.do(cmd, true, func(r *bufio.Reader) error {
		out = out[:0]
		for {
			line, err := readLine(r)
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			out = append(out, line)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	_, err := c.roundTrip("PING", true)
	return err
}

// Promote asks the server to become the replication primary (manual
// failover). Idempotent: promoting a primary is an acknowledged no-op.
func (c *Client) Promote() error {
	resp, err := c.roundTrip("PROMOTE", true)
	if err != nil {
		return err
	}
	if resp != "OK role=primary" {
		return fmt.Errorf("server: bad PROMOTE response %q", resp)
	}
	return nil
}

// Append ingests one observation. Append is NOT idempotent — the store
// rejects duplicate timestamps, and a lost reply leaves the outcome unknown
// — so a transport failure here is returned rather than blindly retried;
// the caller decides whether re-sending the sample is safe (it is when the
// caller tracks acknowledgements, as the torture harness does).
func (c *Client) Append(id string, s trajectory.Sample) error {
	if strings.ContainsAny(id, " \t\n") {
		return fmt.Errorf("server: object id %q contains whitespace", id)
	}
	_, err := c.roundTrip(fmt.Sprintf("APPEND %s %g %g %g", id, s.T, s.X, s.Y), false)
	return err
}

// AppendBatch ingests a batch of observations for one object with a single
// MAPPEND round trip — the command line plus the data lines leave in one
// buffered write, and one reply answers the whole batch. Like Append it is
// NOT idempotent: a transport failure leaves the batch outcome unknown
// (possibly an applied prefix) and is returned rather than retried.
func (c *Client) AppendBatch(id string, ss []trajectory.Sample) error {
	if len(ss) == 0 {
		return nil
	}
	if strings.ContainsAny(id, " \t\n") {
		return fmt.Errorf("server: object id %q contains whitespace", id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "MAPPEND %s %d", id, len(ss))
	for _, s := range ss {
		fmt.Fprintf(&b, "\n%g %g %g", s.T, s.X, s.Y)
	}
	resp, err := c.roundTrip(b.String(), false)
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("OK appended=%d", len(ss)); resp != want {
		return fmt.Errorf("server: bad MAPPEND response %q", resp)
	}
	return nil
}

// PositionAt queries the interpolated position of an object at time t.
func (c *Client) PositionAt(id string, t float64) (geo.Point, error) {
	resp, err := c.roundTrip(fmt.Sprintf("POSITION %s %g", id, t), true)
	if err != nil {
		return geo.Point{}, err
	}
	var x, y float64
	if _, err := fmt.Sscanf(resp, "OK %g %g", &x, &y); err != nil {
		return geo.Point{}, fmt.Errorf("server: bad POSITION response %q", resp)
	}
	return geo.Pt(x, y), nil
}

// Snapshot fetches an object's stored trajectory.
func (c *Client) Snapshot(id string) (trajectory.Trajectory, error) {
	lines, err := c.readList("SNAPSHOT " + id)
	if err != nil {
		return nil, err
	}
	out := make(trajectory.Trajectory, 0, len(lines))
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("server: bad SNAPSHOT line %q", line)
		}
		var s trajectory.Sample
		var errT, errX, errY error
		s.T, errT = strconv.ParseFloat(f[0], 64)
		s.X, errX = strconv.ParseFloat(f[1], 64)
		s.Y, errY = strconv.ParseFloat(f[2], 64)
		if errT != nil || errX != nil || errY != nil {
			return nil, fmt.Errorf("server: bad SNAPSHOT line %q", line)
		}
		out = append(out, s)
	}
	return out, nil
}

// Query returns the IDs of objects intersecting rect during [t0, t1].
func (c *Client) Query(rect geo.Rect, t0, t1 float64) ([]string, error) {
	return c.readList(fmt.Sprintf("QUERY %g %g %g %g %g %g",
		rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y, t0, t1))
}

// QueryWithTolerance is Query with the rectangle expanded server-side by
// eps metres (see store.QueryWithTolerance).
func (c *Client) QueryWithTolerance(rect geo.Rect, t0, t1, eps float64) ([]string, error) {
	return c.readList(fmt.Sprintf("QUERYTOL %g %g %g %g %g %g %g",
		rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y, t0, t1, eps))
}

// QueryRange returns every stored point inside rect during [t0, t1] from
// both storage tiers, ordered by object ID then time. Points answered from
// the cold sealed tier are reconstructions within the tier's error bound ε.
func (c *Client) QueryRange(rect geo.Rect, t0, t1 float64) ([]store.RangePoint, error) {
	lines, err := c.readList(fmt.Sprintf("QUERYRANGE %g %g %g %g %g %g",
		rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y, t0, t1))
	if err != nil {
		return nil, err
	}
	out := make([]store.RangePoint, 0, len(lines))
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("server: bad QUERYRANGE line %q", line)
		}
		var p store.RangePoint
		p.ID = f[0]
		var errT, errX, errY error
		p.S.T, errT = strconv.ParseFloat(f[1], 64)
		p.S.X, errX = strconv.ParseFloat(f[2], 64)
		p.S.Y, errY = strconv.ParseFloat(f[3], 64)
		if errT != nil || errX != nil || errY != nil {
			return nil, fmt.Errorf("server: bad QUERYRANGE line %q", line)
		}
		out = append(out, p)
	}
	return out, nil
}

// Nearest returns the k objects closest to q at time t, nearest first,
// interpolated across both storage tiers.
func (c *Client) Nearest(q geo.Point, t float64, k int) ([]store.Neighbor, error) {
	lines, err := c.readList(fmt.Sprintf("NEAREST %g %g %g %d", q.X, q.Y, t, k))
	if err != nil {
		return nil, err
	}
	out := make([]store.Neighbor, 0, len(lines))
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("server: bad NEAREST line %q", line)
		}
		var nb store.Neighbor
		nb.ID = f[0]
		var errX, errY, errD error
		nb.Pos.X, errX = strconv.ParseFloat(f[1], 64)
		nb.Pos.Y, errY = strconv.ParseFloat(f[2], 64)
		nb.Dist, errD = strconv.ParseFloat(f[3], 64)
		if errX != nil || errY != nil || errD != nil {
			return nil, fmt.Errorf("server: bad NEAREST line %q", line)
		}
		out = append(out, nb)
	}
	return out, nil
}

// Seal moves server-side retained samples older than t into the cold sealed
// tier, returning the number of samples moved out of the hot tier. Sealing
// to the same cut twice is a no-op, so the command is retried like a read.
func (c *Client) Seal(t float64) (int, error) {
	resp, err := c.roundTrip(fmt.Sprintf("SEAL %g", t), true)
	if err != nil {
		return 0, err
	}
	var n int
	if _, err := fmt.Sscanf(resp, "OK sealed=%d", &n); err != nil {
		return 0, fmt.Errorf("server: bad SEAL response %q", resp)
	}
	return n, nil
}

// EvictBefore removes server-side data older than t, returning the number
// of removed samples. Like Append it mutates server state, so it is not
// retried past a transport failure.
func (c *Client) EvictBefore(t float64) (int, error) {
	resp, err := c.roundTrip(fmt.Sprintf("EVICT %g", t), false)
	if err != nil {
		return 0, err
	}
	var n int
	if _, err := fmt.Sscanf(resp, "OK removed=%d", &n); err != nil {
		return 0, fmt.Errorf("server: bad EVICT response %q", resp)
	}
	return n, nil
}

// IDs lists all stored object identifiers.
func (c *Client) IDs() ([]string, error) { return c.readList("IDS") }

// Stats is the client-side view of the STATS response: the storage summary
// plus the per-object retained point breakdown, all captured server-side in
// one consistent snapshot.
type Stats struct {
	Objects         int            `json:"objects"`
	RawPoints       int            `json:"raw_points"`
	RetainedPoints  int            `json:"retained_points"`
	CompressionPct  float64        `json:"compression_pct"`
	UptimeSeconds   float64        `json:"uptime_seconds"`
	SealedPoints    int            `json:"sealed_points"`
	SealedBlocks    int            `json:"sealed_blocks"`
	SealedBytes     int64          `json:"sealed_bytes"`
	WALAckedOffset  int64          `json:"wal_acked_offset"`
	Role            string         `json:"role"`
	PointsPerObject map[string]int `json:"points_per_object,omitempty"`
}

// Stats reports server-side storage statistics.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.do("STATS", true, func(r *bufio.Reader) error {
		st = Stats{}
		resp, err := readLine(r)
		if err != nil {
			return err
		}
		if _, err := fmt.Sscanf(resp, "OK objects=%d raw=%d retained=%d compression=%g uptime=%g sealed=%d sealedblocks=%d sealedbytes=%d walacked=%d role=%s",
			&st.Objects, &st.RawPoints, &st.RetainedPoints, &st.CompressionPct, &st.UptimeSeconds,
			&st.SealedPoints, &st.SealedBlocks, &st.SealedBytes, &st.WALAckedOffset, &st.Role); err != nil {
			return fmt.Errorf("server: bad STATS response %q", resp)
		}
		st.PointsPerObject = make(map[string]int, st.Objects)
		for {
			line, err := readLine(r)
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			var id string
			var n int
			if _, err := fmt.Sscanf(line, "obj %s points=%d", &id, &n); err != nil {
				return fmt.Errorf("server: bad STATS line %q", line)
			}
			st.PointsPerObject[id] = n
		}
	})
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Metrics fetches the server's metrics registry in the Prometheus text
// exposition format — the same document the optional HTTP /metrics endpoint
// serves.
func (c *Client) Metrics() (string, error) {
	lines, err := c.readList("METRICS")
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n") + "\n", nil
}
