package wal

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// ErrPoisoned is the sticky error the durable store returns after a
// mid-batch log failure left the in-memory store ahead of the log.
// Accepting further appends would widen that divergence silently, so every
// write-path call fails with this error until a successful Compact rewrites
// the log from the store state and heals it.
var ErrPoisoned = errors.New("wal: log poisoned by earlier append failure")

// ErrSealedHistory is returned by Compact while the store's cold sealed
// tier holds history. Compaction rewrites the log from the hot retained
// state only, and the log is the sole durable copy of sealed samples (the
// cold tier is a regenerable cache, never a durability dependency) — so
// compacting would silently drop sealed history from durability.
var ErrSealedHistory = errors.New("wal: compaction refused while sealed history exists (the log is its only durable copy)")

// Compaction file extensions. A ".compact.tmp" is a replacement log still
// being written — garbage after a crash. A ".compact" is by construction
// fully written and synced (Compact renames tmp to it only after a clean
// close), so recovery prefers it over the log it was about to replace.
const (
	compactTmpExt  = ".compact.tmp"
	compactDoneExt = ".compact"
)

// DurableStore couples a moving-object store with a write-ahead log. Raw
// observations pass through the store's on-ingest compressor; the retained
// stream is logged, so a reopened DurableStore recovers the identical
// retained state. Samples still buffered in a compressor window are not yet
// durable — except that Close seals each object's latest position into the
// log before shutdown.
type DurableStore struct {
	*store.Store

	mu         sync.Mutex
	fs         fault.FS
	log        *Log
	ins        *instruments
	lastLogged map[string]float64 // last logged timestamp per object
	syncEvery  int                // sticky across compaction reopens
	poisoned   error              // sticky divergence error; see ErrPoisoned
	replica    bool               // replication follower: see SetReplica
}

// ErrReplica is returned by the write path while the store is in replica
// mode: a follower's state must stay exactly the replay of its primary's
// log, so only ApplyReplica may mutate it.
var ErrReplica = errors.New("wal: store is a replication follower (readonly)")

// OpenDurable opens (or creates) a durable store backed by the log at path,
// replaying any existing records into a fresh store built with opts. The
// WAL's instruments — and the fault-injection hit counter — register in
// opts.Metrics alongside the store's.
func OpenDurable(path string, opts store.Options) (*DurableStore, error) {
	return OpenDurableFS(fault.NewFS(fault.OS, fault.NewSet(opts.Metrics)), path, opts)
}

// OpenDurableFS is OpenDurable over an explicit filesystem, the entry point
// of the fault-injection tests.
func OpenDurableFS(fsys fault.FS, path string, opts store.Options) (*DurableStore, error) {
	// Finish a compaction that crashed between completing its replacement
	// and committing it: the ".compact" file is fully written and synced,
	// and it supersedes the old log (every old record is either in it or
	// was superseded). A ".compact.tmp" is a half-written replacement from
	// a crash mid-compaction — remove it.
	if _, err := fsys.Stat(path + compactDoneExt); err == nil {
		if err := fsys.Rename(path+compactDoneExt, path); err != nil {
			return nil, fmt.Errorf("wal: finishing interrupted compaction: %w", err)
		}
	}
	_ = fsys.Remove(path + compactTmpExt) // best effort: usually absent

	st := store.New(opts)
	ins := newInstruments(opts.Metrics)
	lastLogged := make(map[string]float64)
	log, err := openLog(fsys, path, func(rec Record) error {
		lastLogged[rec.ID] = rec.Sample.T
		return st.Restore(rec.ID, rec.Sample)
	}, ins)
	if err != nil {
		return nil, err
	}
	return &DurableStore{
		Store: st, fs: fsys, log: log, ins: ins,
		lastLogged: lastLogged, syncEvery: log.SyncEvery,
	}, nil
}

// SetSyncEvery sets how many records may be appended between fsyncs; 0
// syncs on every append, the strict mode under which an acknowledged
// append is durable before its caller hears OK. The setting survives
// compaction.
func (d *DurableStore) SetSyncEvery(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	d.syncEvery = n
	d.log.SetSyncEvery(n)
}

// Poisoned reports the sticky divergence error, or nil while the log and
// store agree.
func (d *DurableStore) Poisoned() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.poisoned
}

// Append ingests one raw observation and logs whatever the store retained.
// A sample is durable once logged (subject to the log's SyncEvery
// batching). A log failure mid-batch poisons the store: the in-memory state
// is ahead of the log, so every subsequent write-path call returns
// ErrPoisoned until Compact rewrites the log and heals the divergence.
//
// Only the store update and the buffered log write happen under the store
// lock (they must, so per-object log order matches store-accept order); the
// group-commit durability wait runs after it is released, so concurrent
// appenders share one fsync instead of serializing behind each other's.
func (d *DurableStore) Append(id string, s trajectory.Sample) error {
	d.mu.Lock()
	if d.replica {
		d.mu.Unlock()
		return ErrReplica
	}
	if d.poisoned != nil {
		err := d.poisoned
		d.mu.Unlock()
		return err
	}
	retained, err := d.Store.AppendObserved(id, s)
	if err != nil {
		d.mu.Unlock()
		return err // rejected before any state change: not poisonous
	}
	log, lastSeq, err := d.stageLocked(id, retained)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if lastSeq == 0 {
		return nil // nothing retained: the sample sits in a compressor window
	}
	if cerr := log.commit(lastSeq); cerr != nil {
		return d.poisonCommit(log, id, cerr)
	}
	return nil
}

// AppendBatch ingests a batch of raw observations for one object with one
// shard-lock acquisition and at most one group-commit wait. On error the
// first `applied` samples were ingested and the rest were not — an intact
// prefix, the batch analogue of the acknowledged-prefix guarantee. Any
// non-nil error means the caller must not acknowledge the batch: a commit
// failure leaves even the applied prefix's durability unknown and poisons
// the store.
func (d *DurableStore) AppendBatch(id string, ss []trajectory.Sample) (int, error) {
	d.mu.Lock()
	if d.replica {
		d.mu.Unlock()
		return 0, ErrReplica
	}
	if d.poisoned != nil {
		err := d.poisoned
		d.mu.Unlock()
		return 0, err
	}
	applied, retained, err := d.Store.AppendBatchObserved(id, ss)
	log, lastSeq, serr := d.stageLocked(id, retained)
	d.mu.Unlock()
	if serr != nil {
		return applied, serr
	}
	if lastSeq != 0 {
		if cerr := log.commit(lastSeq); cerr != nil {
			return applied, d.poisonCommit(log, id, cerr)
		}
	}
	return applied, err
}

// stageLocked buffers the retained samples into the log and returns the log
// and the last staged sequence number (0 if nothing was staged) for the
// commit the caller performs after releasing d.mu. A staging failure
// poisons the store: the in-memory state is ahead of the log. Caller holds
// d.mu.
func (d *DurableStore) stageLocked(id string, retained []trajectory.Sample) (*Log, uint64, error) {
	var lastSeq uint64
	for _, r := range retained {
		seq, err := d.log.stage(Record{ID: id, Sample: r})
		if err != nil {
			d.poisoned = fmt.Errorf("%w (object %q: %v)", ErrPoisoned, id, err)
			return nil, 0, fmt.Errorf("wal: append %q: %w", id, err)
		}
		d.lastLogged[id] = r.T
		lastSeq = seq
	}
	return d.log, lastSeq, nil
}

// poisonCommit records the sticky divergence after a group-commit failure:
// samples the store already accepted may never have reached stable storage.
// If a concurrent Compact already replaced the log, the rewrite covered
// every retained sample from the store state, so the stale log's failure is
// moot and no poison is set. what names the failing operation for the error
// chain ("object \"car\"", "replica batch").
func (d *DurableStore) poisonCommit(log *Log, what string, err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == log && d.poisoned == nil {
		d.poisoned = fmt.Errorf("%w (%s: %v)", ErrPoisoned, what, err)
	}
	return fmt.Errorf("wal: %s: %w", what, err)
}

// SetReplica flips the store in or out of replication-follower mode. In
// replica mode the write path (Append, AppendBatch) refuses with ErrReplica
// — only ApplyReplica may mutate state, so the local log stays a byte-exact
// prefix of the primary's — and Close skips sealing latest positions (the
// primary never logged those records, so sealing would diverge the logs).
// Promotion to primary is SetReplica(false).
func (d *DurableStore) SetReplica(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.replica = on
}

// Replica reports whether the store is in replication-follower mode.
func (d *DurableStore) Replica() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replica
}

// AckedOffset returns the durable acknowledged byte offset of the log: the
// prefix below it is covered by a completed fsync. A follower sends it as
// the catch-up cursor of REPLICATE and reports it back in ACKs.
func (d *DurableStore) AckedOffset() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.AckedOffset()
}

// AckedSeq returns the number of log records covered by a completed fsync,
// counted from the log's first record — stable across reopens, and directly
// comparable between a primary and its followers for lag accounting.
func (d *DurableStore) AckedSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.SyncedSeq()
}

// WrittenOffset returns the staged log length in bytes; every append
// accepted so far ends at or below it. See Log.WrittenOffset.
func (d *DurableStore) WrittenOffset() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.WrittenOffset()
}

// LogPath returns the path of the live log file — the file a replication
// sender streams from. Compact swaps the file behind this path, which
// invalidates any open reader; replication deployments must not compact
// while followers are attached (runtime code never compacts — it is a
// maintenance operation).
func (d *DurableStore) LogPath() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.path
}

// SubscribeSynced registers ch for a poke whenever the durable acknowledged
// offset advances; UnsubscribeSynced removes it. See Log.SubscribeSynced.
func (d *DurableStore) SubscribeSynced(ch chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log.SubscribeSynced(ch)
}

// UnsubscribeSynced removes ch from the sync notification list.
func (d *DurableStore) UnsubscribeSynced(ch chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log.UnsubscribeSynced(ch)
}

// ApplyReplica applies records received from a primary's replication stream:
// each record is restored into the store (bypassing compression — the
// stream is already the primary's post-compression retained sequence) and
// staged into the local log, then the whole batch is committed with one
// group fsync. Re-encoding is deterministic, so the local log remains a
// byte-exact prefix of the primary's log and the local synced offset is the
// ACK cursor. A restore rejection (stream/store divergence) leaves store
// and log agreeing on the applied prefix and is returned un-poisoned; a log
// staging or commit failure poisons the store exactly like Append.
func (d *DurableStore) ApplyReplica(recs []Record) error {
	d.mu.Lock()
	if d.poisoned != nil {
		err := d.poisoned
		d.mu.Unlock()
		return err
	}
	var lastSeq uint64
	for _, rec := range recs {
		if err := d.Store.Restore(rec.ID, rec.Sample); err != nil {
			d.mu.Unlock()
			return fmt.Errorf("wal: replica apply %q: %w", rec.ID, err)
		}
		seq, err := d.log.stage(rec)
		if err != nil {
			d.poisoned = fmt.Errorf("%w (replica apply %q: %v)", ErrPoisoned, rec.ID, err)
			d.mu.Unlock()
			return fmt.Errorf("wal: replica apply %q: %w", rec.ID, err)
		}
		d.lastLogged[rec.ID] = rec.Sample.T
		lastSeq = seq
	}
	log := d.log
	d.mu.Unlock()
	if lastSeq == 0 {
		return nil // empty batch
	}
	if err := log.Flush(); err != nil {
		return d.poisonCommit(log, "replica", err)
	}
	return nil
}

// Flush forces all logged records to stable storage.
func (d *DurableStore) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		return d.poisoned
	}
	// A stop-the-world durability barrier: holding d.mu across the fsync is
	// the point.
	return d.log.Flush()
}

// LogSize returns the current log size in bytes.
func (d *DurableStore) LogSize() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Size()
}

// Close seals each object's latest position into the log (if newer than the
// last logged record, so replay order is preserved) and closes the log.
// Sealing is safe only at shutdown: after a reopen every compressor window
// is empty, so no later emission can precede the sealed sample in time.
// The in-memory store remains usable read-only afterwards. A poisoned store
// skips sealing — the log's tail state is unknown — and reports the poison.
func (d *DurableStore) Close() error {
	// Shutdown only: d.mu stays held across the final seals, fsync and close,
	// which excludes concurrent appends by design.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		_ = d.log.Close() // best effort: the poison is the error worth reporting
		return d.poisoned
	}
	if d.replica {
		// A follower must not invent records the primary never logged;
		// whatever sits in the replicated prefix is already durable.
		return d.log.Close()
	}
	for _, id := range d.Store.IDs() {
		snap, ok := d.Store.Snapshot(id)
		if !ok || snap.Len() == 0 {
			continue
		}
		last := snap[snap.Len()-1]
		if last.T <= d.lastLogged[id] {
			continue
		}
		if err := d.log.Append(Record{ID: id, Sample: last}); err != nil {
			_ = d.log.Close() // best effort: the append error is the one worth reporting
			return err
		}
		d.lastLogged[id] = last.T
	}
	return d.log.Close()
}

// Compact rewrites the log to contain exactly the store's current retained
// samples — dropping the accumulation of sealed tails from earlier sessions
// and any superseded records. A successful compaction also heals a poisoned
// store, since the rewritten log mirrors the store state exactly.
//
// The rewrite is crash-atomic, in three phases:
//
//  1. The replacement is written and synced beside the live log as
//     ".compact.tmp"; any failure aborts with the old log untouched.
//  2. The finished replacement is renamed to ".compact" — the completeness
//     marker. A crash after this point recovers from the replacement
//     (OpenDurableFS finishes the rename).
//  3. The old log is closed and the replacement renamed over it. A rename
//     failure rolls the marker back so the old log stays authoritative.
//
// Only retained samples are written (never buffered tails): a live
// compressor may still emit a cut point older than the buffered tail, and
// replay requires per-object time order.
//
// Compact refuses with ErrSealedHistory while the store's cold sealed tier
// holds samples: the rewrite covers only hot retained state, and the log is
// the sole durable copy of sealed history (the cold tier regenerates from
// replay and must never become a durability dependency).
func (d *DurableStore) Compact() error {
	// Stop-the-world by design: d.mu is held for the whole crash-atomic
	// rewrite, its fsyncs included.
	d.mu.Lock()
	defer d.mu.Unlock()

	if n := d.Store.SealedPoints(); n > 0 {
		return fmt.Errorf("%w (%d sealed points)", ErrSealedHistory, n)
	}

	path := d.log.path
	tmpPath := path + compactTmpExt
	donePath := path + compactDoneExt

	// Phase 1: build the replacement. The live log stays open and
	// authoritative until phase 2 completes.
	_ = d.fs.Remove(tmpPath) // a leftover from an earlier crash is garbage
	tmp, err := openLog(d.fs, tmpPath, nil, d.ins)
	if err != nil {
		return err
	}
	tmp.SyncEvery = 1 << 20 // one sync at close; the rename is the commit
	newLast := make(map[string]float64)
	for _, id := range d.Store.IDs() {
		ret, _ := d.Store.Retained(id)
		for _, s := range ret {
			if err := tmp.Append(Record{ID: id, Sample: s}); err != nil {
				_ = tmp.Close()          // best effort: the append error is the one worth reporting
				_ = d.fs.Remove(tmpPath) // the temp file is garbage either way
				return err
			}
		}
		if ret.Len() > 0 {
			newLast[id] = ret[ret.Len()-1].T
		}
	}
	if err := tmp.Close(); err != nil {
		_ = d.fs.Remove(tmpPath) // the temp file is garbage either way
		return err
	}

	// Phase 2: mark the replacement complete.
	if err := d.fs.Rename(tmpPath, donePath); err != nil {
		_ = d.fs.Remove(tmpPath) // the temp file is garbage either way
		return fmt.Errorf("wal: compact: %w", err)
	}

	// Phase 3: commit.
	closeErr := d.log.Close()
	if err := d.fs.Rename(donePath, path); err != nil {
		// Roll the marker back so the old log stays authoritative; leaving
		// it would make the next open recover from the replacement while
		// this process keeps appending to the old log.
		if rerr := d.fs.Remove(donePath); rerr != nil {
			d.poisoned = fmt.Errorf("%w (compact commit: %v; rollback: %v)", ErrPoisoned, err, rerr)
			return d.poisoned
		}
		if closeErr != nil {
			// The old log's final flush failed too: its tail may lag the
			// store, so refuse further writes rather than diverge.
			d.poisoned = fmt.Errorf("%w (compact aborted: %v; old log close: %v)", ErrPoisoned, err, closeErr)
			return d.poisoned
		}
		reopened, oerr := openLog(d.fs, path, nil, d.ins)
		if oerr != nil {
			d.poisoned = fmt.Errorf("%w (compact aborted: %v; reopen: %v)", ErrPoisoned, err, oerr)
			return d.poisoned
		}
		reopened.SyncEvery = d.syncEvery
		d.log = reopened
		return fmt.Errorf("wal: compact rename: %w", err)
	}
	reopened, err := openLog(d.fs, path, nil, d.ins)
	if err != nil {
		d.poisoned = fmt.Errorf("%w (reopen after compaction: %v)", ErrPoisoned, err)
		return d.poisoned
	}
	reopened.SyncEvery = d.syncEvery
	d.log = reopened
	d.lastLogged = newLast
	d.ins.compactions.Inc()
	d.poisoned = nil // the log now mirrors the store exactly
	return nil
}
