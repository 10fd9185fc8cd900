package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// ErrStopped is returned by WaitReplicated when the primary is shut down
// while a write waits for a follower acknowledgement.
var ErrStopped = errors.New("repl: primary stopped")

// Options tunes a Primary. The zero value is AckPrimary mode with no
// shedding and default timeouts.
type Options struct {
	// Mode selects the acknowledgement mode; empty means AckPrimary.
	Mode Mode
	// MaxLag is the shed threshold in records for AckPrimary mode: a
	// follower whose acked record count falls more than this behind the
	// primary's durable count is disconnected. 0 disables shedding.
	MaxLag uint64
	// AckTimeout bounds WaitReplicated in AckFollower mode.
	AckTimeout time.Duration
	// PingEvery is the keepalive interval while the log is idle.
	PingEvery time.Duration
	// WriteTimeout is the per-frame write deadline towards a follower.
	WriteTimeout time.Duration
	// Metrics receives the repl_* instruments (nil: the default registry).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Mode == "" {
		o.Mode = AckPrimary
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = defaultAckTimeout
	}
	if o.PingEvery <= 0 {
		o.PingEvery = defaultPingEvery
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	return o
}

// Primary is the sending side of replication: it serves REPLICATE streams
// off a DurableStore's log and, in AckFollower mode, lets the write path
// wait until a follower has made a record durable.
type Primary struct {
	store *wal.DurableStore
	opts  Options
	ins   *instruments

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}         // closed by Stop; unblocks waits and senders
	conns   map[net.Conn]struct{} // live follower connections, closed on Stop
	maxAck  int64                 // highest byte offset any follower has acked
	ackWake chan struct{}         // closed and replaced when maxAck advances
}

// NewPrimary wires a Primary over the store whose log it will stream.
func NewPrimary(store *wal.DurableStore, opts Options) *Primary {
	opts = opts.withDefaults()
	return &Primary{
		store:   store,
		opts:    opts,
		ins:     newInstruments(opts.Metrics),
		stop:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		ackWake: make(chan struct{}),
	}
}

// Mode reports the acknowledgement mode the primary runs in.
func (p *Primary) Mode() Mode { return p.opts.Mode }

// Stop disconnects every follower and releases all WaitReplicated waiters
// with ErrStopped. Safe to call more than once.
func (p *Primary) Stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close() // unblocks the per-connection sender and ack reader
	}
}

// track registers a live follower connection; it returns false if the
// primary is already stopped (the caller must refuse the stream).
func (p *Primary) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Primary) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

// advanceAck records a follower's durable offset and wakes WaitReplicated
// waiters when the cluster-wide maximum moves forward.
func (p *Primary) advanceAck(bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if bytes > p.maxAck {
		p.maxAck = bytes
		close(p.ackWake) // broadcast: closing a channel never blocks
		p.ackWake = make(chan struct{})
	}
}

// WaitReplicated blocks until at least one follower has fsynced everything
// staged into the log at the time of the call. In AckPrimary mode it returns
// immediately — replication is asynchronous there. The primary's own log is
// flushed first if its durable prefix has not yet covered the staged bytes
// (group-commit batching), so the follower can actually be sent the record
// it is being waited on.
func (p *Primary) WaitReplicated() error {
	if p.opts.Mode != AckFollower {
		return nil
	}
	off := p.store.WrittenOffset()
	if p.store.AckedOffset() < off {
		if err := p.store.Flush(); err != nil {
			return err
		}
	}
	timer := time.NewTimer(p.opts.AckTimeout)
	defer timer.Stop()
	for {
		p.mu.Lock()
		if p.maxAck >= off {
			p.mu.Unlock()
			return nil
		}
		wake := p.ackWake
		stopped := p.stopped
		nConns := len(p.conns)
		p.mu.Unlock()
		if stopped {
			return ErrStopped
		}
		select {
		case <-wake:
		case <-p.stop:
			return ErrStopped
		case <-timer.C:
			return fmt.Errorf("repl: no follower ack within %s (followers=%d)", p.opts.AckTimeout, nConns)
		}
	}
}

// followerState is the per-connection ack cursor, written by the connection's
// ack-reader goroutine and read by its sender loop, and the sender's upper
// bound on what an ACK may claim.
type followerState struct {
	ackBytes atomic.Int64
	ackSeq   atomic.Uint64
	// sent is the log offset the stream has reached, published before each
	// DATA frame is written so an honest ACK never outruns it.
	sent atomic.Int64
}

// ServeFollower answers one REPLICATE command: it streams the durable log
// suffix from offset to the follower on conn and then tails live group
// commits until the connection breaks, the primary stops, or the follower is
// shed for lag. It owns both directions of the connection for its whole
// lifetime (ACK lines arrive on br) and returns when the stream is over; the
// caller closes conn. offset/seq are the follower's durable cursor from the
// REPLICATE line.
func (p *Primary) ServeFollower(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, offset int64, seq uint64) error {
	if offset < int64(wal.HeaderLen) {
		// A brand-new follower may report 0; the stream always starts after
		// the header both sides write on their own.
		offset, seq = int64(wal.HeaderLen), 0
	}
	fail := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		_ = conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout))
		_, _ = bw.WriteString(frameErr + msg + "\n")
		_ = bw.Flush()
		return errors.New("repl: " + msg)
	}
	if acked := p.store.AckedOffset(); offset > acked {
		return fail("diverged: follower offset %d ahead of primary durable %d; restart the follower from an empty log", offset, acked)
	}
	if !p.track(conn) {
		return fail("shutting down")
	}
	defer p.untrack(conn)
	p.ins.connects.Inc()
	p.ins.followers.Inc()
	defer p.ins.followers.Dec()

	f, err := os.Open(p.store.LogPath())
	if err != nil {
		return fail("log open: %v", err)
	}
	defer f.Close()

	_ = conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout))
	if _, err := fmt.Fprintf(bw, "OK replicate offset=%d\n", offset); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// The ack reader drains the follower's ACK lines concurrently with the
	// sender loop below; it is the connection's only reader from here on.
	st := &followerState{}
	st.ackBytes.Store(offset)
	st.ackSeq.Store(seq)
	st.sent.Store(offset)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			// ReadSlice bounds the line by br's buffer: an over-long line
			// fails with bufio.ErrBufferFull and drops the connection.
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			var bytes int64
			var seq uint64
			if _, err := fmt.Sscanf(string(line), frameAck+"%d %d", &bytes, &seq); err != nil {
				return // protocol violation: drop the connection
			}
			if bytes < st.ackBytes.Load() || bytes > st.sent.Load() {
				return // acks what it was never sent, or goes back: drop
			}
			st.ackBytes.Store(bytes)
			st.ackSeq.Store(seq)
			p.advanceAck(bytes)
		}
	}()
	// The sender owns conn; make sure the reader is gone before returning so
	// it never touches a connection the server has moved on from.
	defer func() {
		_ = conn.Close()
		<-readerDone
	}()

	buf := make([]byte, chunkBytes)
	notify := make(chan struct{}, 1)
	p.store.SubscribeSynced(notify)
	defer p.store.UnsubscribeSynced(notify)
	ticker := time.NewTicker(p.opts.PingEvery)
	defer ticker.Stop()
	caughtUp := false

	for {
		// Drain everything durable beyond the follower's cursor. The durable
		// offset only grows, and every byte below it is fsynced and stable,
		// so reading the file at [offset, target) races nothing.
		target := p.store.AckedOffset()
		for offset < target {
			n := int(min(int64(len(buf)), target-offset))
			if _, err := f.ReadAt(buf[:n], offset); err != nil {
				return fail("log read at %d: %v", offset, err)
			}
			st.sent.Store(offset + int64(n))
			_ = conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout))
			if _, err := fmt.Fprintf(bw, "%s%d\n", frameData, n); err != nil {
				return err
			}
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			offset += int64(n)
		}
		if !caughtUp {
			caughtUp = true
			p.ins.catchups.Inc()
		}

		// Lag accounting and the shed policy. Lag is measured in records
		// against what the follower has acked as durable, so a follower that
		// receives but never fsyncs/acks is lagging even at the stream tip.
		durable := p.store.AckedSeq()
		ackSeq := st.ackSeq.Load()
		var lag uint64
		if durable > ackSeq {
			lag = durable - ackSeq
		}
		p.ins.lag.Set(float64(lag))
		if p.opts.Mode == AckPrimary && p.opts.MaxLag > 0 && lag > p.opts.MaxLag {
			p.ins.sheds.Inc()
			return fail("lagging %d records behind (max %d); reconnect to catch up", lag, p.opts.MaxLag)
		}

		select {
		case <-notify:
		case <-ticker.C:
			_ = conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout))
			if _, err := bw.WriteString(framePing + "\n"); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case <-p.stop:
			return fail("shutting down")
		case <-readerDone:
			return errors.New("repl: follower connection lost")
		}
	}
}
