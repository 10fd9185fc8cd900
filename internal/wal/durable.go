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
// write-path call fails with this error for the rest of the process's life.
// A restart heals it: the reopened store is the replay of the log, which
// holds exactly the acknowledged prefix.
var ErrPoisoned = errors.New("wal: log poisoned by earlier append failure")

// DurableStore couples a moving-object store with a write-ahead log. Raw
// observations pass through the store's on-ingest compressor; the retained
// stream is logged, so a reopened DurableStore recovers the identical
// retained state. Samples still buffered in a compressor window are not yet
// durable — except that Close seals each object's latest position into the
// log before shutdown.
type DurableStore struct {
	*store.Store

	mu         sync.Mutex
	log        *Log               // fixed at open and self-locking: read without mu
	lastLogged map[string]float64 // last logged timestamp per object
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
	st := store.New(opts)
	lastLogged := make(map[string]float64)
	log, err := openLog(fsys, path, func(rec Record) error {
		lastLogged[rec.ID] = rec.Sample.T
		return st.Restore(rec.ID, rec.Sample)
	}, newInstruments(opts.Metrics))
	if err != nil {
		return nil, err
	}
	return &DurableStore{Store: st, log: log, lastLogged: lastLogged}, nil
}

// SetSyncEvery sets how many records may be appended between fsyncs; 0
// syncs on every append, the strict mode under which an acknowledged
// append is durable before its caller hears OK.
func (d *DurableStore) SetSyncEvery(n int) {
	if n < 0 {
		n = 0
	}
	d.log.SetSyncEvery(n)
}

// Append ingests one raw observation and logs whatever the store retained.
// A sample is durable once logged (subject to the log's SyncEvery
// batching). A log failure mid-batch poisons the store: the in-memory state
// is ahead of the log, so every subsequent write-path call returns
// ErrPoisoned until a restart replays the log.
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
	lastSeq, err := d.stageLocked(id, retained)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if lastSeq == 0 {
		return nil // nothing retained: the sample sits in a compressor window
	}
	if cerr := d.log.commit(lastSeq); cerr != nil {
		return d.poisonCommit(id, cerr)
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
	lastSeq, serr := d.stageLocked(id, retained)
	d.mu.Unlock()
	if serr != nil {
		return applied, serr
	}
	if lastSeq != 0 {
		if cerr := d.log.commit(lastSeq); cerr != nil {
			return applied, d.poisonCommit(id, cerr)
		}
	}
	return applied, err
}

// stageLocked buffers the retained samples into the log and returns the
// last staged sequence number (0 if nothing was staged) for the commit the
// caller performs after releasing d.mu. A staging failure poisons the
// store: the in-memory state is ahead of the log. Caller holds d.mu.
func (d *DurableStore) stageLocked(id string, retained []trajectory.Sample) (uint64, error) {
	var lastSeq uint64
	for _, r := range retained {
		seq, err := d.log.stage(Record{ID: id, Sample: r})
		if err != nil {
			d.poisoned = fmt.Errorf("%w (object %q: %v)", ErrPoisoned, id, err)
			return 0, fmt.Errorf("wal: append %q: %w", id, err)
		}
		d.lastLogged[id] = r.T
		lastSeq = seq
	}
	return lastSeq, nil
}

// poisonCommit records the sticky divergence after a group-commit failure:
// samples the store already accepted may never have reached stable storage.
// what names the failing operation for the error chain ("object \"car\"",
// "replica").
func (d *DurableStore) poisonCommit(what string, err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned == nil {
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

// AckedOffset returns the durable acknowledged byte offset of the log: the
// prefix below it is covered by a completed fsync. A follower sends it as
// the catch-up cursor of REPLICATE and reports it back in ACKs.
func (d *DurableStore) AckedOffset() int64 {
	return d.log.AckedOffset()
}

// AckedSeq returns the number of log records covered by a completed fsync,
// counted from the log's first record — stable across reopens, and directly
// comparable between a primary and its followers for lag accounting.
func (d *DurableStore) AckedSeq() uint64 {
	return d.log.SyncedSeq()
}

// WrittenOffset returns the staged log length in bytes; every append
// accepted so far ends at or below it. See Log.WrittenOffset.
func (d *DurableStore) WrittenOffset() int64 {
	return d.log.WrittenOffset()
}

// LogPath returns the path of the log file — the file a replication sender
// streams from. The file is only ever appended to while the store is open,
// so a sender's byte offsets stay valid for the store's lifetime.
func (d *DurableStore) LogPath() string {
	return d.log.path
}

// SubscribeSynced registers ch for a poke whenever the durable acknowledged
// offset advances; UnsubscribeSynced removes it. See Log.SubscribeSynced.
func (d *DurableStore) SubscribeSynced(ch chan struct{}) {
	d.log.SubscribeSynced(ch)
}

// UnsubscribeSynced removes ch from the sync notification list.
func (d *DurableStore) UnsubscribeSynced(ch chan struct{}) {
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
	d.mu.Unlock()
	if lastSeq == 0 {
		return nil // empty batch
	}
	if err := d.log.Flush(); err != nil {
		return d.poisonCommit("replica", err)
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
