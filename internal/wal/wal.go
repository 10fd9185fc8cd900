// Package wal provides write-ahead-log durability for the moving-object
// store: the retained (post-compression) sample stream of every object is
// appended to an on-disk log, so a restarted process recovers the full
// store state by replay. Logging the retained stream — rather than the raw
// GPS feed — carries the paper's compression savings straight to disk: the
// log grows with the compressed point count.
//
// Log format: a fixed header, then length-prefixed records each protected
// by CRC-32. Recovery reads records until the end of the file; a torn or
// corrupt tail record (a crash mid-write) ends replay at the last good
// record, the standard WAL contract. Recovery tolerates truncation at any
// byte offset — including inside the header — and always reopens with a
// prefix of the logged records.
//
// Durability semantics: a sample becomes durable when its record is written
// (and flushed, see SyncEvery). Samples still buffered inside an on-ingest
// compressor window at crash time are lost except for the window anchor:
// at most compress.WindowCap − 1 samples per object.
//
// Concurrency and group commit: the log is safe for concurrent appenders.
// Records are staged into the write buffer under the log's lock; fsyncs are
// group-committed: the first appender that needs durability becomes the
// leader, flushes everything staged so far, and runs the single fsync
// outside the lock while later appenders queue behind it. One fsync
// therefore covers every record staged before it started, so N concurrent
// appends cost O(1) fsyncs per round instead of N.
//
// All file operations go through an injectable fault.FS, so the
// fault-injection tests can fail any write, sync or close — and tear writes
// at any byte offset — without touching the real disk path.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trajectory"
)

const (
	headerMagic = "TRJW\x01"
	maxIDLen    = 1 << 10
	recordFixed = 4 + 4 + 24 // length prefix + crc + three float64s (id extra)
)

// instruments holds the WAL's registered metrics. Open registers in the
// default registry; OpenDurable registers in store.Options.Metrics so an
// embedded deployment keeps its WAL and store observability together.
type instruments struct {
	// records counts records written to the log — a write counter, not a
	// live record count.
	records *metrics.Counter
	// fsync is the latency distribution of the file sync on the flush path,
	// the dominant cost of the durability guarantee.
	fsync *metrics.Histogram
	// groupSize is the distribution of records covered per group-commit
	// fsync; values above 1 are appends that shared a sync with a neighbour.
	groupSize *metrics.Histogram
	// tornTails counts recoveries that truncated a torn or corrupt tail.
	tornTails *metrics.Counter
	// ackedOffset is the durable acknowledged byte offset: every byte below
	// it is covered by a completed fsync. It is what a replication follower
	// may be streamed and what its ACKs are measured against.
	ackedOffset *metrics.Gauge
}

func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.Default()
	}
	return &instruments{
		records:     r.Counter("wal_records_total"),
		fsync:       r.Histogram("wal_fsync_seconds", nil),
		groupSize:   r.Histogram("wal_group_commit_records", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		tornTails:   r.Counter("wal_torn_tail_recoveries_total"),
		ackedOffset: r.Gauge("wal_acked_offset"),
	}
}

// Record is one durable observation.
type Record struct {
	ID     string
	Sample trajectory.Sample
}

// Log is an append-only record log, safe for concurrent appenders. Staged
// writes go into one buffered writer under the log's lock; durability is
// provided by the group committer in syncLocked. A write, flush, or sync
// failure is sticky: the buffer (or the file tail) is torn at an unknown
// byte, so every later operation fails until the log is reopened, which
// truncates the torn tail.
type Log struct {
	path string
	ins  *instruments

	mu       sync.Mutex
	synced   *sync.Cond // signalled whenever a leader's sync round finishes
	f        fault.File
	w        *bufio.Writer
	writeSeq uint64 // records staged into the buffer, counted from the log's first byte
	syncSeq  uint64 // records covered by a completed fsync, same absolute scale
	// writeBytes/syncBytes are the byte-offset twins of writeSeq/syncSeq:
	// the staged log length and the durable acknowledged prefix length.
	// Because the record encoding is deterministic, these offsets are stable
	// across reopens and identical on a faithful replication follower.
	writeBytes int64
	syncBytes  int64
	notify     []chan struct{} // subscribers poked when syncBytes advances
	syncing    bool            // a leader's flush+fsync round is in flight
	sticky     error           // first write/flush/sync failure; the log is torn

	// SyncEvery controls how many staged records may precede an fsync; 0
	// syncs on every append (slow, maximally durable: Append returning nil
	// means the record is on stable storage). Flush always syncs. The field
	// is read under the log's lock: direct assignment is safe only before
	// the log is shared; use SetSyncEvery when appenders may be running.
	SyncEvery int
}

// Open opens (creating if needed) the log at path, replays every intact
// record through apply, and returns the log positioned for appending.
// Replay stops silently at the first torn/corrupt record, truncating the
// log there.
func Open(path string, apply func(Record) error) (*Log, error) {
	return OpenFS(fault.OS, path, apply)
}

// OpenFS is Open over an explicit filesystem — fault.NewFS in the
// fault-injection tests, fault.OS in production.
func OpenFS(fsys fault.FS, path string, apply func(Record) error) (*Log, error) {
	return openLog(fsys, path, apply, newInstruments(nil))
}

func openLog(fsys fault.FS, path string, apply func(Record) error, ins *instruments) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	good, count, err := replay(f, apply)
	if err != nil {
		_ = f.Close() // the replay error is the one worth reporting
		return nil, err
	}
	if info, serr := f.Stat(); serr == nil && info.Size() > good {
		// Replay stopped before the end of the file: a torn or corrupt tail
		// is about to be truncated away.
		ins.tornTails.Inc()
	}
	// Truncate any torn tail and position for append.
	if err := f.Truncate(good); err != nil {
		_ = f.Close() // the truncate error is the one worth reporting
		return nil, fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one worth reporting
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	// Seqs and byte offsets start at the replayed totals, not zero, so they
	// are absolute positions in the log — stable across reopens and directly
	// comparable between a primary and its replication followers.
	l := &Log{
		f: f, w: bufio.NewWriter(f), path: path, ins: ins, SyncEvery: 64,
		writeSeq: count, syncSeq: count, writeBytes: good, syncBytes: good,
	}
	l.synced = sync.NewCond(&l.mu)
	if good == 0 {
		if _, err := l.w.WriteString(headerMagic); err != nil {
			_ = f.Close() // the header write error is the one worth reporting
			return nil, fmt.Errorf("wal: header: %w", err)
		}
		l.writeBytes = int64(len(headerMagic))
		if err := l.Flush(); err != nil {
			_ = f.Close() // the sync error is the one worth reporting
			return nil, err
		}
	}
	ins.ackedOffset.Set(float64(l.syncBytes))
	return l, nil
}

// replay reads the header and all intact records, returning the byte offset
// just past the last good record and the number of intact records.
func replay(f fault.File, apply func(Record) error) (int64, uint64, error) {
	r := bufio.NewReader(f)
	head := make([]byte, len(headerMagic))
	n, err := io.ReadFull(r, head)
	if err != nil {
		// A file shorter than the header is either brand new (n == 0) or a
		// crash tore the very first header write; both recover as an empty
		// log. Anything that is not a prefix of the magic is a foreign file.
		if n == 0 || string(head[:n]) == headerMagic[:n] {
			return 0, 0, nil
		}
		return 0, 0, errors.New("wal: not a trajectory WAL file")
	}
	if string(head) != headerMagic {
		return 0, 0, errors.New("wal: not a trajectory WAL file")
	}
	offset := int64(len(headerMagic))
	var count uint64
	rr := &recordReader{r: r}
	for {
		rec, size, err := rr.next()
		if err != nil {
			return offset, count, nil // torn/corrupt/EOF tail: stop replay here
		}
		if apply != nil {
			if aerr := apply(rec); aerr != nil {
				return 0, 0, fmt.Errorf("wal: replay: %w", aerr)
			}
		}
		offset += size
		count++
	}
}

// recordReader reads records off a log stream without allocating per
// record: the payload goes into one reused buffer, and the ID string is
// reused while consecutive records carry the same ID, as the samples of one
// MAPPEND do.
type recordReader struct {
	r    *bufio.Reader
	word [4]byte             // length prefix, then CRC; a field, so it does not escape per call
	buf  [maxIDLen + 25]byte // the largest plausible payload
	id   string
}

// next reads one record and returns it with its encoded size.
func (rr *recordReader) next() (Record, int64, error) {
	if _, err := io.ReadFull(rr.r, rr.word[:]); err != nil {
		return Record{}, 0, err
	}
	payloadLen := binary.LittleEndian.Uint32(rr.word[:])
	if payloadLen < 25 || payloadLen > maxIDLen+25 {
		return Record{}, 0, errors.New("wal: implausible record length")
	}
	payload := rr.buf[:payloadLen]
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		return Record{}, 0, err
	}
	if _, err := io.ReadFull(rr.r, rr.word[:]); err != nil {
		return Record{}, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rr.word[:]) {
		return Record{}, 0, errors.New("wal: checksum mismatch")
	}
	idLen := int(payload[0])
	if 1+idLen+24 != int(payloadLen) {
		return Record{}, 0, errors.New("wal: inconsistent record framing")
	}
	if id := payload[1 : 1+idLen]; string(id) != rr.id {
		rr.id = string(id)
	}
	rec := Record{
		ID: rr.id,
		Sample: trajectory.Sample{
			T: math.Float64frombits(binary.LittleEndian.Uint64(payload[1+idLen:])),
			X: math.Float64frombits(binary.LittleEndian.Uint64(payload[1+idLen+8:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(payload[1+idLen+16:])),
		},
	}
	return rec, int64(4 + payloadLen + 4), nil
}

// encode renders the record in its on-disk framing: length prefix, payload
// (id length, id, three float64s), CRC-32 of the payload.
func encode(rec Record) ([]byte, error) {
	if len(rec.ID) > maxIDLen || len(rec.ID) > 255 {
		return nil, fmt.Errorf("wal: object id longer than 255 bytes")
	}
	buf := make([]byte, recordFixed+1+len(rec.ID)) // fixed parts + idLen byte + id
	payload := buf[4 : 4+1+len(rec.ID)+24]
	payload[0] = byte(len(rec.ID))
	copy(payload[1:], rec.ID)
	binary.LittleEndian.PutUint64(payload[1+len(rec.ID):], math.Float64bits(rec.Sample.T))
	binary.LittleEndian.PutUint64(payload[1+len(rec.ID)+8:], math.Float64bits(rec.Sample.X))
	binary.LittleEndian.PutUint64(payload[1+len(rec.ID)+16:], math.Float64bits(rec.Sample.Y))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// Append writes one record and waits for durability per SyncEvery: it
// returns once an fsync covers the record, or immediately while the number
// of unsynced records is within the SyncEvery allowance.
func (l *Log) Append(rec Record) error {
	seq, err := l.stage(rec)
	if err != nil {
		return err
	}
	return l.commit(seq)
}

// stage buffers one record without waiting for durability and returns its
// sequence number for commit. DurableStore stages under its own lock (so
// per-object log order matches store-accept order) and commits after
// releasing it, which is what lets concurrent appenders share fsyncs.
func (l *Log) stage(rec Record) (uint64, error) {
	buf, err := encode(rec)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sticky != nil {
		return 0, l.sticky
	}
	if _, err := l.w.Write(buf); err != nil {
		// The buffered writer may have spilled part of the record: the file
		// tail is torn at an unknown byte, so the log is done for.
		l.sticky = fmt.Errorf("wal: %w", err)
		l.synced.Broadcast()
		return 0, l.sticky
	}
	l.writeSeq++
	l.writeBytes += int64(len(buf))
	l.ins.records.Inc()
	return l.writeSeq, nil
}

// commit applies the SyncEvery policy to a staged record: if the unsynced
// record count exceeds SyncEvery the caller joins the group commit and
// blocks until an fsync covers seq; otherwise durability stays deferred and
// commit returns immediately.
func (l *Log) commit(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncSeq >= seq {
		return nil
	}
	if l.sticky != nil {
		return l.sticky
	}
	if l.writeSeq-l.syncSeq <= uint64(l.SyncEvery) {
		return nil // within the allowed unsynced window
	}
	return l.syncLocked(seq, false)
}

// syncLocked is the group committer: it runs (or waits behind) leader
// flush+fsync rounds until an fsync covers seq. The leader flushes the
// write buffer under the lock — a cheap page-cache copy — then releases it
// for the fsync itself, so appenders keep staging records that the next
// round will cover. With force, at least one full round runs even if seq is
// already covered (Flush's contract, and how the header reaches disk).
// Caller holds l.mu.
func (l *Log) syncLocked(seq uint64, force bool) error {
	for {
		if l.sticky != nil {
			return l.sticky
		}
		if !force && l.syncSeq >= seq {
			return nil
		}
		if l.syncing {
			l.synced.Wait()
			continue
		}
		l.syncing = true
		force = false
		if err := l.w.Flush(); err != nil {
			l.syncing = false
			l.sticky = fmt.Errorf("wal: flush: %w", err)
			l.synced.Broadcast()
			return l.sticky
		}
		target := l.writeSeq
		targetBytes := l.writeBytes
		l.mu.Unlock()
		t0 := time.Now()
		err := l.f.Sync()
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.sticky = fmt.Errorf("wal: sync: %w", err)
			l.synced.Broadcast()
			return l.sticky
		}
		l.ins.fsync.ObserveSince(t0)
		if target > l.syncSeq {
			l.ins.groupSize.Observe(float64(target - l.syncSeq))
			l.syncSeq = target
		}
		if targetBytes > l.syncBytes {
			l.syncBytes = targetBytes
			l.ins.ackedOffset.Set(float64(l.syncBytes))
			// Poke subscribers (replication senders waiting for new durable
			// bytes); a full channel already carries the wake-up.
			for _, ch := range l.notify {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
		l.synced.Broadcast()
	}
}

// SetSyncEvery adjusts the sync policy while appenders may be running.
func (l *Log) SetSyncEvery(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.SyncEvery = n
}

// Flush forces buffered records to stable storage.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.writeSeq, true)
}

// AckedOffset returns the durable acknowledged byte offset: the log prefix
// below it is covered by a completed fsync. It is the offset a replication
// follower may be streamed up to, and the offset it reports back in ACKs.
func (l *Log) AckedOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncBytes
}

// SyncedSeq returns the number of records covered by a completed fsync,
// counted from the log's first record (absolute across reopens). The
// difference between a primary's SyncedSeq and a follower's is the
// follower's replication lag in records.
func (l *Log) SyncedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncSeq
}

// WrittenOffset returns the staged log length in bytes: every record
// accepted so far ends at or below it, whether or not an fsync covers it
// yet. Waiting for a follower ACK at WrittenOffset therefore covers every
// append staged before the call.
func (l *Log) WrittenOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeBytes
}

// SubscribeSynced registers ch for a non-blocking poke whenever the durable
// acknowledged offset advances. The channel should have capacity 1; a full
// channel already carries the pending wake-up.
func (l *Log) SubscribeSynced(ch chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notify = append(l.notify, ch)
}

// UnsubscribeSynced removes ch from the sync notification list.
func (l *Log) UnsubscribeSynced(ch chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range l.notify {
		if c == ch {
			l.notify = append(l.notify[:i], l.notify[i+1:]...)
			return
		}
	}
}

// Close flushes, syncs, and closes the log. Callers must have quiesced
// stage/Append; commit waiters are fine — the closing sync covers every
// staged record, so they wake before the file handle goes away.
func (l *Log) Close() error {
	if err := l.Flush(); err != nil {
		_ = l.f.Close() // best effort: the flush/sync error is the one worth reporting
		return err
	}
	return l.f.Close()
}

// HeaderLen is the byte length of the log header — the smallest valid
// offset into a log, and the catch-up offset of a brand-new replication
// follower.
const HeaderLen = len(headerMagic)

// Decode parses as many complete records as buf holds, returning them with
// the number of bytes consumed. A clean stop — buf simply ends inside a
// record — returns a nil error; the caller keeps the unconsumed tail and
// retries once more bytes arrive. A non-nil error means the bytes are not a
// record stream at the expected position (corruption or a desynchronized
// stream), which a replication follower must treat as fatal for the
// connection. It is the wire-side twin of the recovery replay loop.
func Decode(buf []byte) (recs []Record, consumed int, err error) {
	rr := &recordReader{r: bufio.NewReader(bytes.NewReader(buf))}
	for {
		rec, size, err := rr.next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, consumed, nil // incomplete tail: wait for more bytes
			}
			return recs, consumed, err
		}
		recs = append(recs, rec)
		consumed += int(size)
	}
}
