package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
)

func counterValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestLogTruncatedAtEveryByteOffset is the exhaustive crash-point sweep: a
// multi-record log chopped at every possible byte offset — mid-header,
// mid-length-prefix, mid-payload, mid-CRC — must always reopen, recover
// exactly the record prefix that fits below the cut, count the torn tail in
// wal_torn_tail_recoveries_total, and accept appends again.
func TestLogTruncatedAtEveryByteOffset(t *testing.T) {
	const nRecords = 6
	const recSize = 4 + (1 + 1 + 24) + 4 // len prefix + payload(idLen+id+3 floats) + crc

	full := filepath.Join(t.TempDir(), "full.wal")
	l, err := Open(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRecords; i++ {
		if err := l.Append(Record{ID: "x", Sample: trajectory.S(float64(i), float64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := int64(len(headerMagic) + nRecords*recSize)
	if int64(len(data)) != wantSize {
		t.Fatalf("log size %d, want %d — record framing changed, update the test", len(data), wantSize)
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		var got []Record
		lc, err := openLog(fault.OS, path, func(r Record) error { got = append(got, r); return nil }, newInstruments(reg))
		if err != nil {
			t.Fatalf("cut at byte %d: reopen failed: %v", cut, err)
		}
		wantRecs := 0
		if cut >= len(headerMagic) {
			wantRecs = (cut - len(headerMagic)) / recSize
		}
		if len(got) != wantRecs {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		for i, r := range got {
			if r.ID != "x" || r.Sample.T != float64(i) {
				t.Fatalf("cut at byte %d: record %d = %+v — not the logged prefix", cut, i, r)
			}
		}
		torn := cut != 0 && (cut < len(headerMagic) || (cut-len(headerMagic))%recSize != 0)
		wantTorn := 0.0
		if torn {
			wantTorn = 1
		}
		if got := counterValue(t, reg, "wal_torn_tail_recoveries_total"); got != wantTorn {
			t.Fatalf("cut at byte %d: torn-tail counter = %v, want %v", cut, got, wantTorn)
		}
		// The recovered log must be appendable: durability continues after
		// any crash shape.
		if err := lc.Append(Record{ID: "x", Sample: trajectory.S(1e9, 0, 0)}); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		if err := lc.Close(); err != nil {
			t.Fatalf("cut at byte %d: close: %v", cut, err)
		}
		n := 0
		lc2, err := openLog(fault.OS, path, func(Record) error { n++; return nil }, newInstruments(metrics.NewRegistry()))
		if err != nil {
			t.Fatalf("cut at byte %d: second reopen: %v", cut, err)
		}
		if n != wantRecs+1 {
			t.Fatalf("cut at byte %d: second reopen saw %d records, want %d", cut, n, wantRecs+1)
		}
		_ = lc2.Close()
	}
}

// A failed write mid-append leaves the in-memory store ahead of the log; the
// durable store must turn sticky-poisoned rather than keep acknowledging
// appends it cannot make durable — and a successful Compact must heal it.
func TestDurableStorePoisonAndHeal(t *testing.T) {
	reg := metrics.NewRegistry()
	set := fault.NewSet(reg)
	fsys := fault.NewFS(fault.OS, set)
	path := filepath.Join(t.TempDir(), "trips.wal")

	d, err := OpenDurableFS(fsys, path, store.Options{Metrics: reg}) // raw mode: every sample logged
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0) // flush every append so the injected write error surfaces in Append
	for i := 0; i < 5; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}

	set.Enable(fault.SiteWrite, fault.OnCall(1), fault.Action{})
	if err := d.Append("car", trajectory.S(5, 5, 0)); err == nil {
		t.Fatal("append with failing write succeeded")
	}
	set.Disable(fault.SiteWrite)

	// The store is ahead of the log now; every write-path call must report
	// the sticky poison even though the disk works again.
	if err := d.Append("car", trajectory.S(6, 6, 0)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failure = %v, want ErrPoisoned", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("flush after failure = %v, want ErrPoisoned", err)
	}
	if d.Poisoned() == nil {
		t.Fatal("Poisoned() = nil after divergence")
	}
	if got := counterValue(t, reg, "fault_hits_total"); got != 1 {
		t.Errorf("fault_hits_total = %v, want 1", got)
	}

	// Compact rewrites the log from the store state: heals the poison, and
	// the recovered state afterwards matches the in-memory snapshot exactly
	// (including the sample whose log write failed).
	if err := d.Compact(); err != nil {
		t.Fatalf("healing compaction failed: %v", err)
	}
	if d.Poisoned() != nil {
		t.Fatalf("still poisoned after compaction: %v", d.Poisoned())
	}
	if err := d.Append("car", trajectory.S(7, 7, 0)); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	want, _ := d.Snapshot("car")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurableFS(fault.OS, path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, ok := d2.Snapshot("car")
	if !ok || got.Len() != want.Len() {
		t.Fatalf("recovered %d samples, want %d", got.Len(), want.Len())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// A failed fsync is as poisonous as a failed write: the acknowledgement
// contract (append returns nil ⇒ record durable under SyncEvery) would
// otherwise silently break.
func TestDurableStorePoisonOnSyncFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	set := fault.NewSet(reg)
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurableFS(fault.NewFS(fault.OS, set), path, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetSyncEvery(0)
	if err := d.Append("car", trajectory.S(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	set.Enable(fault.SiteSync, fault.OnCall(1), fault.Action{})
	if err := d.Append("car", trajectory.S(1, 0, 0)); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	set.Disable(fault.SiteSync)
	if err := d.Append("car", trajectory.S(2, 0, 0)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after sync failure = %v, want ErrPoisoned", err)
	}
}

// Compaction failures before the commit point must leave the old log
// authoritative and the store fully usable — no poison, no data loss.
func TestCompactFailuresBeforeCommitAreHarmless(t *testing.T) {
	reg := metrics.NewRegistry()
	set := fault.NewSet(reg)
	fsys := fault.NewFS(fault.OS, set)
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurableFS(fsys, path, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}

	// Fail the replacement's final sync (inside tmp.Close), then the
	// tmp→done rename: both abort before the commit point.
	set.Enable(fault.SiteSync, fault.OnCall(1), fault.Action{})
	if err := d.Compact(); err == nil {
		t.Fatal("compaction with failing sync succeeded")
	}
	set.Disable(fault.SiteSync)
	set.Enable(fault.SiteRename, fault.OnCall(1), fault.Action{})
	if err := d.Compact(); err == nil {
		t.Fatal("compaction with failing rename succeeded")
	}
	set.Disable(fault.SiteRename)

	if d.Poisoned() != nil {
		t.Fatalf("aborted compaction poisoned the store: %v", d.Poisoned())
	}
	if err := d.Append("car", trajectory.S(100, 0, 0)); err != nil {
		t.Fatalf("append after aborted compactions: %v", err)
	}
	if _, err := os.Stat(path + compactTmpExt); !os.IsNotExist(err) {
		t.Error("aborted compaction left a .compact.tmp behind")
	}
	if _, err := os.Stat(path + compactDoneExt); !os.IsNotExist(err) {
		t.Error("aborted compaction left a .compact marker behind")
	}

	// And with the faults gone, compaction succeeds.
	if err := d.Compact(); err != nil {
		t.Fatalf("clean compaction after aborts: %v", err)
	}
	if got := counterValue(t, reg, "wal_compactions_total"); got != 1 {
		t.Errorf("wal_compactions_total = %v, want 1", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurableFS(fault.OS, path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, _ := d2.Snapshot("car")
	if snap.Len() != 11 {
		t.Errorf("recovered %d samples, want 11", snap.Len())
	}
}

// A failure of the commit rename (done→path) rolls the marker back: the old
// log stays authoritative and the store keeps working.
func TestCompactCommitRenameRollsBack(t *testing.T) {
	reg := metrics.NewRegistry()
	set := fault.NewSet(reg)
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurableFS(fault.NewFS(fault.OS, set), path, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Rename 1 (tmp→done) succeeds, rename 2 (done→path) fails.
	set.Enable(fault.SiteRename, fault.OnCall(2), fault.Action{})
	if err := d.Compact(); err == nil {
		t.Fatal("compaction with failing commit rename succeeded")
	}
	set.Disable(fault.SiteRename)
	if _, err := os.Stat(path + compactDoneExt); !os.IsNotExist(err) {
		t.Fatal("rolled-back compaction left the .compact marker — next open would recover stale state")
	}
	if d.Poisoned() != nil {
		t.Fatalf("rolled-back compaction poisoned the store: %v", d.Poisoned())
	}
	if err := d.Append("car", trajectory.S(100, 0, 0)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurableFS(fault.OS, path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, _ := d2.Snapshot("car")
	if snap.Len() != 11 {
		t.Errorf("recovered %d samples, want 11", snap.Len())
	}
}

// A crash between completing the replacement and committing it leaves a
// ".compact" file; recovery must prefer it over the stale old log.
func TestRecoveryPrefersCompletedCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trips.wal")

	// The stale old log: 10 records.
	old, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := old.Append(Record{ID: "stale", Sample: trajectory.S(float64(i), 0, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	// The completed replacement a crash stranded beside it: 3 records.
	repl, err := Open(path+compactDoneExt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := repl.Append(Record{ID: "fresh", Sample: trajectory.S(float64(i), 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	// And a half-written tmp from some other crash: garbage to discard.
	if err := os.WriteFile(path+compactTmpExt, []byte("half-written junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok := d.Snapshot("stale"); ok {
		t.Error("recovered from the stale log despite a completed .compact")
	}
	snap, ok := d.Snapshot("fresh")
	if !ok || snap.Len() != 3 {
		t.Fatalf("recovered %d fresh samples, want 3", snap.Len())
	}
	if _, err := os.Stat(path + compactDoneExt); !os.IsNotExist(err) {
		t.Error(".compact marker survived recovery")
	}
	if _, err := os.Stat(path + compactTmpExt); !os.IsNotExist(err) {
		t.Error(".compact.tmp garbage survived recovery")
	}
}

// SetSyncEvery must survive compaction's close-and-reopen of the log.
func TestSyncEverySurvivesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetSyncEvery(0)
	if err := d.Append("car", trajectory.S(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.log.SyncEvery; got != 0 {
		t.Errorf("SyncEvery after compaction = %d, want 0", got)
	}
}
