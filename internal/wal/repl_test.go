package wal

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// TestAckedOffsetTracksFileAndSurvivesReopen: the acknowledged offset is the
// durable log length in bytes and the acknowledged seq the absolute record
// count — both must match the file exactly and come back unchanged (not
// reset to zero) after a reopen, because a replication follower resumes its
// catch-up from them.
func TestAckedOffsetTracksFileAndSurvivesReopen(t *testing.T) {
	path := logPath(t)
	d, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0) // strict: every append fsyncs before returning
	for i := 0; i < 7; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.AckedOffset(); got != info.Size() {
		t.Errorf("AckedOffset = %d, want file size %d", got, info.Size())
	}
	if got := d.AckedSeq(); got != 7 {
		t.Errorf("AckedSeq = %d, want 7", got)
	}
	if got := d.WrittenOffset(); got != d.AckedOffset() {
		t.Errorf("WrittenOffset = %d, want %d (every record synced)", got, d.AckedOffset())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	d2.SetSyncEvery(0)
	info, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.AckedOffset(); got != info.Size() {
		t.Errorf("reopened AckedOffset = %d, want file size %d", got, info.Size())
	}
	// Close sealed one extra record per object beyond the 7 appends? No:
	// every append was logged (raw mode), so the seq is still absolute 7.
	if got := d2.AckedSeq(); got != 7 {
		t.Errorf("reopened AckedSeq = %d, want 7 (absolute, not reset)", got)
	}
	// Offsets keep counting from the replayed base, not from zero.
	if err := d2.Append("car", trajectory.S(100, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := d2.AckedSeq(); got != 8 {
		t.Errorf("AckedSeq after post-reopen append = %d, want 8", got)
	}
	if got := d2.AckedOffset(); got <= info.Size() {
		t.Errorf("AckedOffset after post-reopen append = %d, want > %d", got, info.Size())
	}
}

// TestDecodeRoundTrip: Decode over a raw byte slice must recover exactly the
// records the log encodes, report the consumed byte count, and treat a
// truncated tail as "wait for more bytes" (no error, partial consumed) —
// that is how a follower reassembles records split across stream chunks.
func TestDecodeRoundTrip(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{ID: "a", Sample: trajectory.S(1, 2, 3)},
		{ID: "bb", Sample: trajectory.S(4, -5, 6.5)},
		{ID: "a", Sample: trajectory.S(7, 8, 9)},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[HeaderLen:]

	recs, consumed, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(body) {
		t.Errorf("consumed %d bytes, want %d", consumed, len(body))
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}

	// Chop the tail mid-record: Decode returns the intact prefix, consumes
	// only its bytes, and reports no error (the rest is in flight).
	cut := body[:len(body)-5]
	recs, consumed, err = Decode(cut)
	if err != nil {
		t.Fatalf("truncated tail must not error: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("decoded %d records from cut buffer, want 2", len(recs))
	}
	if consumed >= len(cut) || consumed <= 0 {
		t.Errorf("consumed = %d, want a proper prefix of %d", consumed, len(cut))
	}
	// Corruption (bad CRC) is an error, not a silent stop.
	bad := append([]byte(nil), body...)
	bad[consumed+3] ^= 0xFF
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a corrupted record")
	}
}

// TestApplyReplicaByteIdentity is the core replication invariant: a follower
// that applies the primary's decoded record stream through ApplyReplica
// produces a byte-identical log file, the same acknowledged offset, and the
// same queryable store state. Byte identity is what lets the follower's own
// log length serve as its catch-up cursor after a restart.
func TestApplyReplicaByteIdentity(t *testing.T) {
	pPath := logPath(t)
	primary, err := OpenDurable(pPath, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		id := "even"
		if i%2 == 1 {
			id = "odd"
		}
		if err := primary.Append(id, trajectory.S(float64(i), float64(i)*1.5, -float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, consumed, err := Decode(raw[HeaderLen:])
	if err != nil || consumed != len(raw)-HeaderLen {
		t.Fatalf("Decode primary log: consumed=%d err=%v", consumed, err)
	}

	fPath := logPath(t)
	follower, err := OpenDurable(fPath, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReplica(true)
	// Apply in two batches to cover the batch boundary.
	if err := follower.ApplyReplica(recs[:7]); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplica(recs[7:]); err != nil {
		t.Fatal(err)
	}

	if got, want := follower.AckedOffset(), primary.AckedOffset(); got != want {
		t.Errorf("follower AckedOffset = %d, want %d", got, want)
	}
	if got, want := follower.AckedSeq(), primary.AckedSeq(); got != want {
		t.Errorf("follower AckedSeq = %d, want %d", got, want)
	}
	fRaw, err := os.ReadFile(fPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fRaw, raw) {
		t.Errorf("follower log differs from primary log (%d vs %d bytes)", len(fRaw), len(raw))
	}
	for _, id := range []string{"even", "odd"} {
		ps, ok1 := primary.Snapshot(id)
		fs, ok2 := follower.Snapshot(id)
		if ok1 != ok2 || len(ps) != len(fs) {
			t.Fatalf("%s: snapshot mismatch (primary %d, follower %d)", id, len(ps), len(fs))
		}
		for i := range ps {
			if ps[i] != fs[i] {
				t.Errorf("%s sample %d = %+v, want %+v", id, i, fs[i], ps[i])
			}
		}
	}

	// Replica Close must not seal extra records: the follower's log stays a
	// byte-exact prefix of (here: equal to) the primary's.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(fPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != int64(len(raw)) {
		t.Errorf("replica Close changed log size: %d, want %d", after.Size(), len(raw))
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaModeRejectsWrites: in replica mode the public write path is
// closed — only ApplyReplica may mutate the store.
func TestReplicaModeRejectsWrites(t *testing.T) {
	d, err := OpenDurable(logPath(t), store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetReplica(true)
	if err := d.Append("x", trajectory.S(1, 2, 3)); !errors.Is(err, ErrReplica) {
		t.Errorf("Append in replica mode = %v, want ErrReplica", err)
	}
	if n, err := d.AppendBatch("x", []trajectory.Sample{trajectory.S(1, 2, 3)}); n != 0 || !errors.Is(err, ErrReplica) {
		t.Errorf("AppendBatch in replica mode = (%d, %v), want (0, ErrReplica)", n, err)
	}
	// Flipping back reopens the write path.
	d.SetReplica(false)
	if err := d.Append("x", trajectory.S(1, 2, 3)); err != nil {
		t.Errorf("Append after SetReplica(false): %v", err)
	}
}

// TestSubscribeSynced: a subscriber is poked when the durable prefix
// advances, which is how the replication sender tails live group commits
// without polling.
func TestSubscribeSynced(t *testing.T) {
	d, err := OpenDurable(logPath(t), store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetSyncEvery(0)
	ch := make(chan struct{}, 1)
	d.SubscribeSynced(ch)
	defer d.UnsubscribeSynced(ch)
	before := d.AckedOffset()
	if err := d.Append("x", trajectory.S(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no sync notification within 5s")
	}
	if got := d.AckedOffset(); got <= before {
		t.Errorf("AckedOffset = %d after notified sync, want > %d", got, before)
	}
}
