// Package repl implements primary→follower WAL streaming replication.
//
// A follower dials its primary and issues REPLICATE <offset> [seq], naming
// the byte length of its own durable log — because the record encoding is
// deterministic, a faithful follower's log is a byte-exact prefix of the
// primary's, so that length IS the catch-up cursor. The primary streams the
// acknowledged (fsynced) suffix of its log as DATA frames, then tails live
// group commits; the follower re-applies each record through its own
// wal.DurableStore (store restore + local log + fsync) and reports its new
// durable offset back with ACK lines on the same connection.
//
// Two acknowledgement modes connect replication to the ingest path:
//
//   - AckPrimary (default): replication is asynchronous. A follower that
//     falls more than MaxLag records behind the primary's durable prefix is
//     disconnected with a polite ERR (repl_sheds_total) and must reconnect
//     to catch up, so a slow follower can never stall the group-commit
//     leader.
//   - AckFollower: an APPEND/MAPPEND is acknowledged to the client only
//     after at least one follower has fsynced it (Primary.WaitReplicated),
//     extending the acknowledged-prefix invariant across machines.
//
// PROMOTE flips a follower into a primary (manual failover — no consensus):
// the replication loop stops and the store's write path reopens. The
// operator is responsible for never running two primaries.
//
// The primary's log is append-only — nothing rewrites or replaces the file
// behind LogPath — so a follower's byte offset stays a valid cursor into it.
package repl

import (
	"time"

	"repro/internal/metrics"
)

// Mode selects when the primary acknowledges a write to its client.
type Mode string

const (
	// AckPrimary acknowledges once the primary's own fsync covers the
	// record; replication is asynchronous with lag bounded by shedding.
	AckPrimary Mode = "primary"
	// AckFollower acknowledges only after a follower's fsync also covers
	// the record.
	AckFollower Mode = "follower"
)

// ParseMode validates a -repl-ack flag value.
func ParseMode(s string) (Mode, bool) {
	switch Mode(s) {
	case AckPrimary, AckFollower:
		return Mode(s), true
	}
	return "", false
}

// Wire-protocol framing, shared by the primary sender and follower applier.
// All frames are a text line; DATA is followed by exactly n raw log bytes
// (chunks need not align with record boundaries — the follower reassembles).
const (
	frameData = "DATA " // DATA <n>\n + n bytes of raw log
	framePing = "PING"  // keepalive while the log is idle
	frameErr  = "ERR "  // terminal: shed, shutdown, divergence
	frameAck  = "ACK "  // follower→primary: ACK <bytes> <seq>\n
)

// Defaults for the tunables of both endpoints.
const (
	defaultAckTimeout   = 10 * time.Second
	defaultPingEvery    = 1 * time.Second
	defaultWriteTimeout = 10 * time.Second
	defaultReadTimeout  = 10 * time.Second // > pingEvery: an idle primary still pings
	defaultDialTimeout  = 5 * time.Second
	defaultBackoffBase  = 50 * time.Millisecond
	defaultBackoffMax   = 2 * time.Second
	chunkBytes          = 64 << 10 // cap on one DATA frame's payload
	maxFrameBytes       = 1 << 20  // sanity bound on a received DATA length
)

type instruments struct {
	// followers is the number of attached replication connections (primary).
	followers *metrics.Gauge
	// lag is the most recently computed follower lag in records: the
	// primary's durable record count minus the follower's acked count.
	lag *metrics.Gauge
	// catchups counts follower connections that reached the primary's
	// durable tip at least once (completed catch-up phase).
	catchups *metrics.Counter
	// sheds counts followers disconnected for exceeding MaxLag.
	sheds *metrics.Counter
	// connects counts replication connections (accepted on the primary,
	// dialled on the follower — each endpoint counts its own).
	connects *metrics.Counter
	// applied counts records a follower applied from the stream.
	applied *metrics.Counter
}

func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.Default()
	}
	return &instruments{
		followers: r.Gauge("repl_followers"),
		lag:       r.Gauge("repl_lag_records"),
		catchups:  r.Counter("repl_catchups_total"),
		sheds:     r.Counter("repl_sheds_total"),
		connects:  r.Counter("repl_connects_total"),
		applied:   r.Counter("repl_applied_records_total"),
	}
}
